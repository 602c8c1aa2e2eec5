"""Command-line interface: exact dimension records, tables, resonance reports.

Usage:
    selbergdim dims -m 4 -n 5 -r 3                 # one record, pretty
    selbergdim dims -m 4 -n 5 -r 3 --format json   # same record as JSON
    selbergdim table --m-range 2..4 --n-range 4..6 --r-policy only-n --format csv
    selbergdim classify config.json                # resonance report (+ dims if valid)
    selbergdim verify routes                        # exhaustive route cross-check
    selbergdim verify pfaff --seed 7 --cases 500    # seeded identity suite

Output is deterministic: identical invocations produce byte-identical
output. Rationals are exact ``p/q`` text (``/q`` omitted when the
denominator is 1); CSV holds only ints, ``p/q`` text and ``true``/``false``,
and a CSV cell with a comma, a quote or a line break is quoted (RFC 4180).

Each output kind has one schema. Every record renderer takes a row of
``dims._block_rows``, laid out as ``dims._ROW_FIELDS``. ``RECORD_COLUMNS``
orders a record's JSON keys, and ``CSV_COLUMNS``, the same list without the
JSON-only ``K``, ``I`` and ``hyp_error``, its CSV, pretty-table and
``classify`` cells. A record's CSV line and its ``json.dumps(indent=2)``
text are %-templates built once from these columns. The verify outputs take
their columns from ``SuiteResult``'s fields. ``table --format csv|json``
writes each row as it is computed and keeps none, so memory stays constant;
the pretty table needs every row's width first, so it collects the rows.

Exit codes:
    0  success (all routes agree / assumptions hold / all checks pass)
    1  usage, parse or I/O error, a value with more digits than the
       interpreter's int-to-str limit (``PYTHONINTMAXSTRDIGITS=0`` lifts it),
       or rows too large for the memory the process may take (one
       ``out of memory`` line, no traceback); a streamed table stops at
       that record
    2  route disagreement or a failed verification suite
    3  resonance assumptions violated (classify; report still printed)
  141  stdout was closed before all output was written (``... | head``);
       the run ends quietly, as a process killed by SIGPIPE would
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import Any, Callable, Iterable, Sequence

from .dims import R_POLICIES, _AGREE, _ROW_FIELDS, DomainError, _block_rows, _iter_rows, _validate
from .exactnum import format_rational
from .resonance import (
    ConfigParseError, ResonanceReport, classify, config_from_json, config_to_json_dict,
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

# The columns of a dimension record, in JSON key order: a row's fields, with
# the derived K and I in the place of the error text, which goes last. K, I
# and hyp_error are JSON-only; CSV and the pretty table show the rest.
_HYP_ERROR = _ROW_FIELDS.index("hyp_error")
RECORD_COLUMNS = (*_ROW_FIELDS[:_HYP_ERROR], "K", "I", *_ROW_FIELDS[_HYP_ERROR + 1:], "hyp_error")
CSV_COLUMNS = tuple(c for c in RECORD_COLUMNS if c not in ("K", "I", "hyp_error"))


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


_CSV_QUOTED = re.compile(r'[",\r\n]')


def _csv_row(cells: Sequence[str]) -> str:
    """One CSV line under RFC 4180 minimal quoting, without its line end.

    A cell that holds a comma, a double quote, CR or LF is wrapped in
    double quotes with each inner quote doubled; any other cell is written
    as it is, so rows of numbers, ``p/q`` text and flags never change.
    """
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if _CSV_QUOTED.search(cell) else cell
        for cell in cells
    )


# ---------------------------------------------------------------------------
# record rendering


class _DigitLimitError(Exception):
    """A value to render has more digits than the int-to-str limit allows.

    Rendering a record or a report turns ints into text and raises no other
    ValueError, so a renderer turns any it raises into this.
    """

    def __str__(self) -> str:
        return ("a value has more digits than the interpreter's int-to-str limit "
                f"({sys.get_int_max_str_digits()}); PYTHONINTMAXSTRDIGITS=0 lifts it")


def _digit_limited(render: Callable[..., Any]) -> Callable[..., Any]:
    """``render``, with the digit limit's ValueError raised as _DigitLimitError."""

    def checked(*args: Any) -> Any:
        try:
            return render(*args)
        except ValueError:
            raise _DigitLimitError from None

    return checked


# A record's CSV line, without its line end: one %s per CSV column.
_RECORD_CSV = ",".join(["%s"] * len(CSV_COLUMNS))


def _record_csv(row: tuple) -> str:
    """A row's CSV line, as ``_csv_row`` writes its cells, without its line end.

    An int is passed as it is, and %s writes it as str does, digit limit
    included; I_hyp is its digits, p/q text or, when missing, empty, and a
    flag is true/false. No such cell holds a comma, a quote, CR or LF, so
    the line needs no quoting.
    """
    m, n, r, d, k_rec, k_red, k_clo, i_sum, i_hyp, i_sub, _, agree, valid = row
    return _RECORD_CSV % (
        m, n, r, d, k_rec, k_red, k_clo, i_sum,
        "" if i_hyp is None else format_rational(i_hyp), i_sub,
        _bool_str(agree), _bool_str(valid),
    )


def _record_cells(row: tuple) -> list[str]:
    # For the pretty table and classify's CSV: the line split at its commas,
    # which no cell holds, so every record cell has one format.
    return _record_csv(row).split(",")


def _record_pretty(row: tuple) -> str:
    m, n, r, d, k_rec, k_red, k_clo, i_sum, i_hyp, i_sub, hyp_error, agree, valid = row
    hyp = format_rational(i_hyp) if i_hyp is not None else "undefined"
    lines = [
        f"m={m} n={n} r={r}",
        f"  D = {d}",
        f"  K = {k_clo if agree else '?'}  (recursion={k_rec}, reduction={k_red}, "
        f"closed={k_clo})",
        f"  I = {i_sum if agree else '?'}  (sum={i_sum}, hyp={hyp}, subtract={i_sub})",
        f"  routes_agree = {_bool_str(agree)}",
        f"  in_validity_range = {_bool_str(valid)}",
    ]
    if hyp_error is not None:
        lines.append(f"  hyp_error = {hyp_error}")
    return _lines(lines)


def _records_pretty_table(rows: Sequence[tuple]) -> str:
    lines = [list(CSV_COLUMNS)] + [_record_cells(row) for row in rows]
    widths = [max(len(line[col]) for line in lines) for col in range(len(CSV_COLUMNS))]
    return _lines(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in lines
    )


# json.dumps(indent=2) of a record as a %-template, built once per depth: 0
# for a document of its own, 1 for an item of a top-level list. The braces
# sit at the indent of the depth, one "key": value line per column one level
# deeper, and no line break follows the closing brace.
_RECORD_JSON_TEMPLATES = tuple(
    f"{pad}{{\n" + ",\n".join(f'{pad}  "{c}": %s' for c in RECORD_COLUMNS) + f"\n{pad}}}"
    for pad in ("", "  ")
)


def _record_json(row: tuple, depth: int) -> str:
    """A row as ``json.dumps(indent=2)`` writes its record's dict at ``depth``.

    The dict maps each of ``RECORD_COLUMNS`` to the record's value, a
    rational as p/q text. The row's values go into the template in that
    order, with K and I taken from K_closed and I_sum when the routes
    agree. An int is passed as it is, and %s writes it as str does, digit
    limit included; a rational, or an int I_hyp, is quoted p/q text and
    the one string, hyp_error, is escaped by ``json.dumps``.
    """
    m, n, r, d, k_rec, k_red, k_clo, i_sum, i_hyp, i_sub, hyp_error, agree, valid = row
    return _RECORD_JSON_TEMPLATES[depth] % (
        m, n, r, d, k_rec, k_red, k_clo, i_sum,
        "null" if i_hyp is None else '"' + format_rational(i_hyp) + '"', i_sub,
        k_clo if agree else "null", i_sum if agree else "null",
        _bool_str(agree), _bool_str(valid),
        "null" if hyp_error is None else json.dumps(hyp_error),
    )


_DIMS_RENDERERS: dict[str, Callable[[tuple], str]] = {
    "pretty": _digit_limited(_record_pretty),
    "json": _digit_limited(lambda row: _record_json(row, 0) + "\n"),
    "csv": _digit_limited(lambda row: _lines([_csv_row(CSV_COLUMNS), _record_csv(row)])),
}


# Table writers: each writes the rows it is given through ``write`` and
# returns whether every row's routes agree. csv and json write each row as
# soon as it is computed and keep none of them, so a row past the digit
# limit ends the stream there; the pretty table needs every row's width
# before its first line, so it collects them first. ``_iter_rows`` raises
# DomainError before a writer runs, so the only ValueError a writer meets is
# the digit limit's.

def _write_csv(rows: Iterable[tuple], write: Callable[[str], Any]) -> bool:
    write(_csv_row(CSV_COLUMNS) + "\n")
    agree = True
    for row in rows:
        write(_record_csv(row) + "\n")
        agree = agree and row[_AGREE]
    return agree


def _write_json(rows: Iterable[tuple], write: Callable[[str], Any]) -> bool:
    # The bytes of json.dumps(list_of_records, indent=2) + "\n", one record at a time.
    agree = True
    opening = "[\n"
    for row in rows:
        write(opening + _record_json(row, 1))
        opening = ",\n"
        agree = agree and row[_AGREE]
    write("[]\n" if opening == "[\n" else "\n]\n")
    return agree


def _write_pretty(rows: Iterable[tuple], write: Callable[[str], Any]) -> bool:
    rows = list(rows)
    write(_records_pretty_table(rows))
    return all(row[_AGREE] for row in rows)


_TABLE_WRITERS: dict[str, Callable[..., bool]] = {
    "pretty": _digit_limited(_write_pretty),
    "json": _digit_limited(_write_json),
    "csv": _digit_limited(_write_csv),
}


# ---------------------------------------------------------------------------
# classify rendering

def _violation_compact(v: Any) -> str:
    j_part = f"j={v.j}:" if v.j is not None else ""
    return f"{v.condition}:{j_part}k={v.k}:value={format_rational(v.value)}"


# A violation as json.dumps(indent=2) writes it in the report's list, at
# depth 2, and the report after its field r, the head written by json.dumps.
_VIOLATION_JSON = (
    '    {\n      "condition": %s,\n      "j": %s,\n      "k": %s,\n      "value": "%s"\n    }'
)
_CLASSIFY_JSON = '%s,\n  "violations": %s,\n  "assumption_valid": %s,\n  "dimensions": %s\n}\n'


def _classify_json(cfg: Any, report: ResonanceReport, row: tuple | None) -> str:
    head = json.dumps({
        "config": config_to_json_dict(cfg),
        "lambda_infinity": format_rational(report.lambda_infinity),
        "resonant_indices": list(report.resonant_indices),
        "r": report.r,
    }, indent=2)[:-2]
    violations = ",\n".join([
        _VIOLATION_JSON
        % (json.dumps(v.condition), "null" if v.j is None else v.j, v.k, format_rational(v.value))
        for v in report.violations
    ])
    return _CLASSIFY_JSON % (
        head,
        f"[\n{violations}\n  ]" if violations else "[]",
        _bool_str(report.assumption_valid),
        "null" if row is None else _record_json(row, 1).lstrip(),
    )


def _classify_pretty(cfg: Any, report: ResonanceReport, row: tuple | None) -> str:
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
    if row is not None:
        out += "\n" + _record_pretty(row)
    return out


# The report's own columns, then the record's CSV columns from D onward,
# blank when the assumptions fail and there is no record.
_CLASSIFY_COLUMNS = ("m", "n", "r", "lambda_infinity", "assumption_valid", "violations")
_CLASSIFY_RECORD_FROM = CSV_COLUMNS.index("D")


def _classify_csv(cfg: Any, report: ResonanceReport, row: tuple | None) -> str:
    cells = [
        str(cfg.m),
        str(cfg.n),
        str(report.r),
        format_rational(report.lambda_infinity),
        _bool_str(report.assumption_valid),
        ";".join(_violation_compact(v) for v in report.violations),
    ]
    if row is not None:
        cells.extend(_record_cells(row)[_CLASSIFY_RECORD_FROM:])
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
    return json.dumps({
        "seed": args.seed,
        "cases": args.cases,
        "results": [dataclasses.asdict(res) for res in results],
        "all_passed": all(res.ok for res in results),
    }, indent=2) + "\n"


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
    _validate(args.m, args.n, args.r)
    row = next(_block_rows(args.m, args.n, (args.r,)))
    sys.stdout.write(_DIMS_RENDERERS[args.format](row))
    return EXIT_OK if row[_AGREE] else EXIT_DISAGREEMENT


def _cmd_table(args: argparse.Namespace) -> int:
    # _iter_rows checks the bounds before anything is opened or written.
    rows = _iter_rows(args.m_range, args.n_range, args.r_policy.replace("-", "_"))
    write_table = _TABLE_WRITERS[args.format]
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                agree = write_table(rows, handle.write)
        except OSError as exc:
            return _usage_error(args, f"cannot write {args.out}: {exc}")
    else:
        agree = write_table(rows, sys.stdout.write)
    return EXIT_OK if agree else EXIT_DISAGREEMENT


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(args, f"cannot read {args.config}: {exc}")
    cfg = config_from_json(text)
    report = classify(cfg)
    # ExponentConfig holds an int m >= 1 and at least one lambda, and r counts
    # resonant lambdas, so 0 <= r <= n: the point needs no second check.
    row = next(_block_rows(cfg.m, cfg.n, (report.r,))) if report.assumption_valid else None
    sys.stdout.write(_CLASSIFY_RENDERERS[args.format](cfg, report, row))
    return EXIT_OK if report.assumption_valid else EXIT_ASSUMPTION


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.cases is not None and args.cases < 1:
        _SUBPARSERS["verify"].error("--cases must be >= 1")
    results = run_suites(args.suite, seed=args.seed, cases=args.cases)
    sys.stdout.write(_VERIFY_RENDERERS[args.format](results, args))
    return EXIT_OK if all(res.ok for res in results) else EXIT_DISAGREEMENT


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and the parser of each subcommand by its name."""
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
    return parser, sub.choices


# Built once at import: construction costs more than parsing, and parsing
# leaves the parsers unchanged, so every call to ``main`` can share them.
_PARSER, _SUBPARSERS = _build_parser()


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, with one level of parsing where it can.

    When ``argv[0]`` names a subcommand, the top-level parser would only
    hand the rest to that subcommand's parser and report what it leaves
    over; this does the same without the outer pass, which costs about as
    much as the inner one. Anything else, an empty argv, ``-h`` or an
    unknown command, goes through ``_PARSER`` itself.
    """
    command = _SUBPARSERS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _PARSER.error("unrecognized arguments: %s" % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    # Input outside the domain, or an answer too long to print.
    except (DomainError, ConfigParseError, _DigitLimitError) as exc:
        return _usage_error(args, str(exc))
    # Rows too large for the memory the process may take (a K row has r + 1 entries).
    except MemoryError:
        return _usage_error(args, "out of memory: the rows of this request do not fit")


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
