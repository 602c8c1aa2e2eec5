"""Command-line interface: exact dimension records, tables, resonance reports.

Usage:
    selbergdim dims -m 4 -n 5 -r 3                 # one record, pretty
    selbergdim dims -m 4 -n 5 -r 3 --format json   # same record as JSON
    selbergdim table --m-range 2..4 --n-range 4..6 --r-policy only-n --format csv
    selbergdim classify config.json                # resonance report (+ dims if valid)
    selbergdim verify routes                        # exhaustive route cross-check
    selbergdim verify pfaff --seed 7 --cases 500    # seeded identity suite

Output is deterministic: identical invocations produce byte-identical
output. Rationals are always rendered in the exact ``p/q`` form (``/q``
omitted when the denominator is 1); CSV contains only integers, ``p/q``
strings and ``true``/``false``.

Each output kind has one schema. ``RECORD_COLUMNS`` orders a dimension
record's fields for JSON; the CSV header, CSV cells, pretty table and the
record part of ``classify --format csv`` take the same list without the
JSON-only ``K``, ``I`` and ``hyp_error``. The verify outputs take their
columns from ``SuiteResult``'s fields. Every subcommand renders through a
table from ``--format`` (one of ``FORMATS``) to a renderer. Every CSV line
goes through one RFC 4180 minimal-quoting rule, so a cell with a comma, a
quote or a line break is quoted and rows keep their header's width.

``table --format csv`` and ``--format json`` stream: each record is
written, to stdout or to the ``--out`` file opened before the first one,
as soon as it is computed, and none is kept, so memory stays constant
however large the ranges. The JSON is written record by record yet is
byte-identical to ``json.dumps(records, indent=2)``. The exit code is
decided after the last record. The pretty table needs every row's width
before its first line, so it is built whole and then written.

Every value of a dimension record is a scalar and its keys are fixed, so
a record's ``json.dumps(indent=2)`` form is one %-template per nesting
depth, built once from ``RECORD_COLUMNS``: depth 0 for ``dims --format
json``, depth 1 for each item of ``table --format json``. Each value is
written by its type: an int as its digits, a rational as quoted ``p/q``
text, a bool as ``true``/``false``, None as ``null``, and the one string,
``hyp_error``, through ``json.dumps``. No dict is built. The ``classify``
and ``verify`` JSON documents nest lists and objects and go through
``json.dumps(indent=2)`` itself.

Exit codes:
    0  success (all routes agree / assumptions hold / all checks pass)
    1  usage, parse or I/O error, or a value with more digits than the
       interpreter's int-to-str limit (``PYTHONINTMAXSTRDIGITS=0`` lifts it);
       a streamed table stops at that record
    2  route disagreement or a failed verification suite
    3  resonance assumptions violated (classify; report still printed)
  141  stdout was closed before all output was written (``... | head``);
       the run ends quietly, as a process killed by SIGPIPE would
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .dims import (
    R_POLICIES,
    DimensionRecord,
    DimQuery,
    DomainError,
    compute_record,
    iter_table,
)
from .exactnum import format_rational
from .resonance import (
    AssumptionViolatedError,
    ConfigParseError,
    ResonanceReport,
    config_from_json,
    config_to_json_dict,
    dims_for_config,
)
from .suites import DEFAULT_CASES, SUITE_NAMES, SuiteResult, run_suites

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_ASSUMPTION = 3
# What a shell reports for a process killed by SIGPIPE (128 + 13): the
# reader of stdout closed it before all output was written.
EXIT_BROKEN_PIPE = 141

FORMATS = ("pretty", "json", "csv")

# The columns of a dimension record, in JSON key order. The derived K and I
# and the error text are JSON-only; CSV and the pretty table show the rest.
RECORD_COLUMNS = (
    "m", "n", "r", "D", "K_recursion", "K_reduction", "K_closed",
    "I_sum", "I_hyp", "I_subtract", "K", "I",
    "routes_agree", "in_validity_range", "hyp_error",
)
CSV_COLUMNS = tuple(c for c in RECORD_COLUMNS if c not in ("K", "I", "hyp_error"))


def _record_getter(columns: Sequence[str]) -> Callable[[DimensionRecord], tuple[Any, ...]]:
    return operator.attrgetter(*(f"query.{c}" if c in ("m", "n", "r") else c for c in columns))


_record_values = _record_getter(RECORD_COLUMNS)
_csv_values = _record_getter(CSV_COLUMNS)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bool_str(value: bool) -> str:
    return "true" if value else "false"


def _parse_range(text: str) -> tuple[int, int]:
    """Parse 'LO..HI' (or a bare 'N' meaning N..N) into an inclusive pair."""
    lo_part, sep, hi_part = text.partition("..")
    try:
        lo = int(lo_part)
        hi = int(hi_part) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid range {text!r}: expected 'LO..HI' with integer bounds"
        ) from None
    return lo, hi


def _lines(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


def _json_text(doc: Any) -> str:
    return json.dumps(doc, indent=2) + "\n"


_CSV_QUOTED = re.compile(r'[",\r\n]')


def _csv_row(cells: Sequence[str]) -> str:
    """One CSV line under RFC 4180 minimal quoting, without its line end.

    A cell that holds a comma, a double quote, CR or LF is wrapped in
    double quotes with each inner quote doubled; any other cell is written
    as it is, so rows of numbers, ``p/q`` text and flags never change.
    """
    line = ",".join(cells)
    # Most lines need no quoting: then the join has one comma between each
    # pair of cells and none inside one, and no quote or line break.
    if (
        line.count(",") == len(cells) - 1
        and '"' not in line and "\r" not in line and "\n" not in line
    ):
        return line
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if _CSV_QUOTED.search(cell) else cell
        for cell in cells
    )


# ---------------------------------------------------------------------------
# record rendering


class _DigitLimitError(Exception):
    """A value to render has more digits than the int-to-str limit allows."""


def _digit_limited(render: Callable[..., str]) -> Callable[..., str]:
    """``render``, with the digit limit's ValueError raised as _DigitLimitError.

    Rendering a record or a report turns ints into text and raises no other
    ValueError, so any it raises is that limit's.
    """

    def checked(*args: Any) -> str:
        try:
            return render(*args)
        except ValueError:
            raise _DigitLimitError(
                "a value has more digits than the interpreter's int-to-str limit "
                f"({sys.get_int_max_str_digits()}); PYTHONINTMAXSTRDIGITS=0 lifts it"
            ) from None

    return checked


# A record cell by value type: an int as digits, a rational as p/q text,
# a bool as true/false, a missing value as an empty cell.
_CSV_CELL: dict[type, Callable[[Any], str]] = {
    int: str,
    Fraction: format_rational,
    bool: _bool_str,
    type(None): lambda _: "",
}


@_digit_limited
def _record_cells(rec: DimensionRecord) -> list[str]:
    return [_CSV_CELL[type(value)](value) for value in _csv_values(rec)]


def _record_json_dict(rec: DimensionRecord) -> dict[str, Any]:
    # Rationals become p/q text; ints, bools, strings and None stay as they are.
    return {
        column: format_rational(value) if type(value) is Fraction else value
        for column, value in zip(RECORD_COLUMNS, _record_values(rec))
    }


def _record_pretty(rec: DimensionRecord) -> str:
    q = rec.query
    k = str(rec.K) if rec.K is not None else "?"
    i = str(rec.I) if rec.I is not None else "?"
    hyp = format_rational(rec.I_hyp) if rec.I_hyp is not None else "undefined"
    lines = [
        f"m={q.m} n={q.n} r={q.r}",
        f"  D = {rec.D}",
        f"  K = {k}  (recursion={rec.K_recursion}, reduction={rec.K_reduction}, "
        f"closed={rec.K_closed})",
        f"  I = {i}  (sum={rec.I_sum}, hyp={hyp}, subtract={rec.I_subtract})",
        f"  routes_agree = {_bool_str(rec.routes_agree)}",
        f"  in_validity_range = {_bool_str(rec.in_validity_range)}",
    ]
    if rec.hyp_error is not None:
        lines.append(f"  hyp_error = {rec.hyp_error}")
    return _lines(lines)


def _records_pretty_table(records: Sequence[DimensionRecord]) -> str:
    rows = [list(CSV_COLUMNS)] + [_record_cells(rec) for rec in records]
    widths = [max(len(row[col]) for row in rows) for col in range(len(CSV_COLUMNS))]
    return _lines(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )


# A record value as JSON text by value type: a rational as quoted p/q text,
# a bool as true/false, a missing value as null, and the one string,
# hyp_error, as json.dumps escapes it. An int needs no entry: %s writes it
# as str does, digit limit included.
_JSON_VALUE: dict[type, Callable[[Any], str]] = {
    Fraction: lambda value: '"' + format_rational(value) + '"',
    bool: _bool_str,
    type(None): lambda _: "null",
    str: json.dumps,
}


# json.dumps(indent=2) of a record as a %-template, built once per depth: 0
# for a document of its own, 1 for an item of a top-level list. The braces
# sit at the indent of the depth, one "key": value line per column one level
# deeper, and no line break follows the closing brace.
_RECORD_JSON_TEMPLATES = tuple(
    f"{pad}{{\n" + ",\n".join(f'{pad}  "{c}": %s' for c in RECORD_COLUMNS) + f"\n{pad}}}"
    for pad in ("", "  ")
)


def _record_json(rec: DimensionRecord, depth: int) -> str:
    """A record as ``json.dumps(_record_json_dict(rec), indent=2)`` writes it at ``depth``."""
    return _RECORD_JSON_TEMPLATES[depth] % tuple([
        value if type(value) is int else _JSON_VALUE[type(value)](value)
        for value in _record_values(rec)
    ])


@_digit_limited
def _record_json_item(rec: DimensionRecord) -> str:
    """One record as ``json.dumps(records, indent=2)`` writes it inside the list."""
    return _record_json(rec, 1)


_DIMS_RENDERERS: dict[str, Callable[[DimensionRecord], str]] = {
    "pretty": _digit_limited(_record_pretty),
    "json": _digit_limited(lambda rec: _record_json(rec, 0) + "\n"),
    "csv": _digit_limited(
        lambda rec: _lines([_csv_row(CSV_COLUMNS), _csv_row(_record_cells(rec))])
    ),
}


# Table writers: each writes the records it is given through ``write`` and
# returns whether every record's routes agree. csv and json write each
# record as soon as it is computed and keep none of them; the pretty table
# needs every row's width before its first line, so it collects them first.

def _write_csv(records: Iterable[DimensionRecord], write: Callable[[str], Any]) -> bool:
    write(_csv_row(CSV_COLUMNS) + "\n")
    agree = True
    for rec in records:
        write(_csv_row(_record_cells(rec)) + "\n")
        agree = agree and rec.routes_agree
    return agree


def _write_json(records: Iterable[DimensionRecord], write: Callable[[str], Any]) -> bool:
    # The bytes of json.dumps(list_of_records, indent=2) + "\n", one record at a time.
    agree = True
    opening = "[\n"
    for rec in records:
        write(opening + _record_json_item(rec))
        opening = ",\n"
        agree = agree and rec.routes_agree
    write("[]\n" if opening == "[\n" else "\n]\n")
    return agree


def _write_pretty(records: Iterable[DimensionRecord], write: Callable[[str], Any]) -> bool:
    rows = list(records)
    write(_records_pretty_table(rows))
    return all(rec.routes_agree for rec in rows)


_TABLE_WRITERS: dict[str, Callable[..., bool]] = {
    "pretty": _write_pretty,
    "json": _write_json,
    "csv": _write_csv,
}


# ---------------------------------------------------------------------------
# classify rendering

def _violation_json(v: Any) -> dict[str, Any]:
    return {
        "condition": v.condition,
        "j": v.j,
        "k": v.k,
        "value": format_rational(v.value),
    }


def _violation_compact(v: Any) -> str:
    j_part = f"j={v.j}:" if v.j is not None else ""
    return f"{v.condition}:{j_part}k={v.k}:value={format_rational(v.value)}"


def _classify_json(
    cfg: Any, report: ResonanceReport, record: DimensionRecord | None
) -> str:
    return _json_text({
        "config": config_to_json_dict(cfg),
        "lambda_infinity": format_rational(report.lambda_infinity),
        "resonant_indices": list(report.resonant_indices),
        "r": report.r,
        "violations": [_violation_json(v) for v in report.violations],
        "assumption_valid": report.assumption_valid,
        "dimensions": _record_json_dict(record) if record is not None else None,
    })


def _classify_pretty(
    cfg: Any, report: ResonanceReport, record: DimensionRecord | None
) -> str:
    lambdas = ", ".join(format_rational(lam) for lam in cfg.lambdas)
    lines = [
        f"config: m={cfg.m} g={format_rational(cfg.g)} lambdas=[{lambdas}]",
        f"lambda_infinity = {format_rational(report.lambda_infinity)}",
        f"resonant_indices = [{', '.join(str(j) for j in report.resonant_indices)}]",
        f"r = {report.r}",
    ]
    if report.violations:
        lines.append("violations:")
        for v in report.violations:
            j_part = f"j={v.j} " if v.j is not None else ""
            lines.append(f"  {v.condition}: {j_part}k={v.k} value={format_rational(v.value)}")
    else:
        lines.append("violations: none")
    lines.append(f"assumption_valid = {_bool_str(report.assumption_valid)}")
    out = _lines(lines)
    if record is not None:
        out += "\n" + _record_pretty(record)
    return out


# The report's own columns, then the record's CSV columns from D onward,
# blank when the assumptions fail and there is no record.
_CLASSIFY_COLUMNS = ("m", "n", "r", "lambda_infinity", "assumption_valid", "violations")
_CLASSIFY_RECORD_FROM = CSV_COLUMNS.index("D")


def _classify_csv(
    cfg: Any, report: ResonanceReport, record: DimensionRecord | None
) -> str:
    cells = [
        str(cfg.m),
        str(cfg.n),
        str(report.r),
        format_rational(report.lambda_infinity),
        _bool_str(report.assumption_valid),
        ";".join(_violation_compact(v) for v in report.violations),
    ]
    if record is not None:
        cells.extend(_record_cells(record)[_CLASSIFY_RECORD_FROM:])
    else:
        cells.extend([""] * (len(CSV_COLUMNS) - _CLASSIFY_RECORD_FROM))
    header = _CLASSIFY_COLUMNS + CSV_COLUMNS[_CLASSIFY_RECORD_FROM:]
    return _lines([_csv_row(header), _csv_row(cells)])


_CLASSIFY_RENDERERS = {
    "pretty": _digit_limited(_classify_pretty),
    "json": _digit_limited(_classify_json),
    "csv": _digit_limited(_classify_csv),
}


# ---------------------------------------------------------------------------
# verify rendering

# suite, the counts, counterexample: the csv columns, as asdict/astuple order them.
_SUITE_FIELDS = tuple(field.name for field in dataclasses.fields(SuiteResult))


def _verify_pretty(results: Sequence[SuiteResult], args: argparse.Namespace) -> str:
    lines = []
    for res in results:
        counts = " ".join(f"{name}={getattr(res, name)}" for name in _SUITE_FIELDS[1:-1])
        lines.append(f"{res.suite}: {counts}")
        if res.counterexample is not None:
            lines.append(f"  counterexample: {res.counterexample}")
    n_failed = sum(1 for res in results if not res.ok)
    lines.append("all checks passed" if n_failed == 0 else f"{n_failed} suite(s) failed")
    return _lines(lines)


def _verify_json(results: Sequence[SuiteResult], args: argparse.Namespace) -> str:
    return _json_text({
        "seed": args.seed,
        "cases": args.cases,
        "results": [dataclasses.asdict(res) for res in results],
        "all_passed": all(res.ok for res in results),
    })


def _verify_csv(results: Sequence[SuiteResult], args: argparse.Namespace) -> str:
    rows = (dataclasses.astuple(res) for res in results)
    return _lines(
        [_csv_row(_SUITE_FIELDS)]
        + [_csv_row(["" if value is None else str(value) for value in row]) for row in rows]
    )


_VERIFY_RENDERERS = {"pretty": _verify_pretty, "json": _verify_json, "csv": _verify_csv}


# ---------------------------------------------------------------------------
# subcommand drivers

def _usage_error(args: argparse.Namespace, message: str) -> int:
    print(f"selbergdim {args.command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_dims(args: argparse.Namespace) -> int:
    record = compute_record(DimQuery(m=args.m, n=args.n, r=args.r))
    sys.stdout.write(_DIMS_RENDERERS[args.format](record))
    return EXIT_OK if record.routes_agree else EXIT_DISAGREEMENT


def _cmd_table(args: argparse.Namespace) -> int:
    # iter_table checks the bounds before anything is opened or written.
    records = iter_table(args.m_range, args.n_range, args.r_policy.replace("-", "_"))
    write_table = _TABLE_WRITERS[args.format]
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                agree = write_table(records, handle.write)
        except OSError as exc:
            return _usage_error(args, f"cannot write {args.out}: {exc}")
    else:
        agree = write_table(records, sys.stdout.write)
    return EXIT_OK if agree else EXIT_DISAGREEMENT


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(args, f"cannot read {args.config}: {exc}")
    cfg = config_from_json(text)
    try:
        report, record = dims_for_config(cfg)
    except AssumptionViolatedError as exc:
        report, record = exc.report, None
    sys.stdout.write(_CLASSIFY_RENDERERS[args.format](cfg, report, record))
    return EXIT_OK if report.assumption_valid else EXIT_ASSUMPTION


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.cases is not None and args.cases < 1:
        _PARSER.error("--cases must be >= 1")
    results = run_suites(args.suite, seed=args.seed, cases=args.cases)
    sys.stdout.write(_VERIFY_RENDERERS[args.format](results, args))
    return EXIT_OK if all(res.ok for res in results) else EXIT_DISAGREEMENT


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="selbergdim",
        description=(
            "Exact dimension counts (total / kernel / regularizable image) for the "
            "invariant twisted homology of a Selberg-type integrand, a resonance "
            "classifier for exponent configurations, and verification suites for "
            "the hypergeometric identities behind the formulas."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_dims = sub.add_parser("dims", help="compute one dimension record")
    p_dims.add_argument("-m", type=int, required=True, help="number of integration variables (>= 1)")
    p_dims.add_argument("-n", type=int, required=True, help="number of marked points (>= 1)")
    p_dims.add_argument("-r", type=int, required=True, help="number of resonant exponents (0..n)")
    p_dims.set_defaults(func=_cmd_dims)

    p_table = sub.add_parser("table", help="compute a table of dimension records")
    p_table.add_argument("--m-range", type=_parse_range, required=True, metavar="LO..HI")
    p_table.add_argument("--n-range", type=_parse_range, required=True, metavar="LO..HI")
    p_table.add_argument(
        "--r-policy",
        choices=[policy.replace("_", "-") for policy in R_POLICIES],
        default="all",
        help="which r values to include per (m, n)",
    )
    p_table.add_argument("--out", default=None, help="write to this file instead of stdout")
    p_table.set_defaults(func=_cmd_table)

    p_classify = sub.add_parser(
        "classify", help="classify an exponent configuration against the resonance conditions"
    )
    p_classify.add_argument(
        "config", help='JSON file: {"m": int, "g": "p/q", "lambdas": ["p/q", ...]}'
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify", help="run identity / cross-check suites")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the randomized suites")
    p_verify.add_argument(
        "--cases",
        type=int,
        default=None,
        help=(
            "number of checks for randomized suites (defaults: "
            + ", ".join(f"{k} {v}" for k, v in DEFAULT_CASES.items())
            + ")"
        ),
    )
    p_verify.set_defaults(func=_cmd_verify)

    for name, command in sub.choices.items():
        command.add_argument(
            "--format", choices=FORMATS, default="csv" if name == "table" else "pretty",
            help="output format",
        )
    return parser


# Built once at import: construction costs more than parsing, and parsing
# leaves the parser unchanged, so every call to ``main`` can share it.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    # Input outside the domain, or an answer too long to print.
    except (DomainError, ConfigParseError, _DigitLimitError) as exc:
        return _usage_error(args, str(exc))


def run() -> None:
    """Console-script entry point.

    A reader that closes stdout early (``selbergdim table ... | head``)
    ends the run quietly with EXIT_BROKEN_PIPE: stdout is pointed at the
    null device, so the final flush at exit cannot fail a second time.
    """
    try:
        code = main()
        sys.stdout.flush()  # a broken pipe surfaces here, inside the try
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    run()
