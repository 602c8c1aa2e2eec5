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

Each output kind has one schema: a record's is ``RECORD_COLUMNS``, and
the verify outputs take theirs from ``SuiteResult``'s fields. Every record
renderer takes a row of ``dims._block_rows``. ``table`` takes the blocks of
``dims._iter_blocks``, one per (m, n): a zipped block, whose routes agree
on every row, is its columns, and its records go out in one write, made
from the record renderer's text of one marked row with m, n and D filled
in once per block and each r, K and I value made text once; any other
block is written one record at a time. ``table --format csv|json``
writes each block as it is computed and keeps none, so memory grows with
the n range alone: a block has at most n + 1 records, and each n carries
two K chains of about three ints per r value (``dims._iter_blocks``), but
nothing grows with the m range or the records written. The pretty table
needs every row's width first, so it keeps each row's cells, not the row,
and writes its first line after the last row.

A well-formed request is parsed directly, from a table read at import from
the subcommand parsers' own actions. Help and every other argv go to
argparse, which writes every help text, usage line and error message.

Exit codes:
    0  success (all routes agree / assumptions hold / all checks pass)
    1  usage, parse or I/O error, a value with more digits than the
       interpreter's int-to-str limit (``PYTHONINTMAXSTRDIGITS=0`` lifts
       it; ``classify`` names the config field that holds it), or rows
       too large for the memory the process may take (one ``out of
       memory`` line, no traceback), or a count past the
       interpreter's index limit, ``sys.maxsize`` (one ``too large`` line,
       as for ``classify`` with m = 10^30); a streamed table stops at that
       record
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
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

from .dims import (
    R_POLICIES, _AGREE, _ROW_FIELDS, DomainError, _block, _iter_blocks, _rows, _validate,
)
from .exactnum import _TOO_MANY_DIGITS, _digit_limit, format_rational
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
# Each r policy by its --r-policy spelling; argparse lists the keys as the choices.
_R_POLICY_NAMES = {policy.replace("_", "-"): policy for policy in R_POLICIES}

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


# A flag's text, indexed by the flag itself.
_bool_str = ("false", "true")


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


# A record's CSV line, without its line end: one %s per CSV column.
_RECORD_CSV = ",".join(["%s"] * len(CSV_COLUMNS))


def _record_csv(row: tuple) -> str:
    """A row's CSV line, as ``_csv_row`` writes its cells, without its line end.

    An int or a Fraction is passed as it is, and %s writes it as str does,
    digit limit included: an I_hyp, int or Fraction, as its ``p/q`` text
    (str of a Fraction leaves out /1, as ``format_rational`` does) or, when
    missing, empty. A flag is true/false. No such cell holds a comma, a
    quote, CR or LF, so the line needs no quoting.
    """
    m, n, r, d, k_rec, k_red, k_clo, i_sum, i_hyp, i_sub, _, agree, valid = row
    return _RECORD_CSV % (
        m, n, r, d, k_rec, k_red, k_clo, i_sum,
        "" if i_hyp is None else i_hyp, i_sub,
        _bool_str[agree], _bool_str[valid],
    )


def _record_cells(row: tuple) -> list[str]:
    # For the pretty table and classify's CSV: the line split at its commas,
    # which no cell holds, so every record cell has one format.
    return _record_csv(row).split(",")


# A record as the pretty text writes it, filled by column name from the
# record's CSV cells, with K and I as ? when the routes disagree and a missing
# I_hyp as "undefined". A hyp_error line follows when the series failed.
_RECORD_PRETTY = (
    "m={m} n={n} r={r}\n"
    "  D = {D}\n"
    "  K = {K}  (recursion={K_recursion}, reduction={K_reduction}, closed={K_closed})\n"
    "  I = {I}  (sum={I_sum}, hyp={I_hyp}, subtract={I_subtract})\n"
    "  routes_agree = {routes_agree}\n"
    "  in_validity_range = {in_validity_range}\n"
)


def _record_pretty(row: tuple) -> str:
    cells = dict(zip(CSV_COLUMNS, _record_cells(row)))
    agree, hyp_error = row[_AGREE], row[_HYP_ERROR]
    text = _RECORD_PRETTY.format_map({
        **cells, "I_hyp": cells["I_hyp"] or "undefined",
        "K": cells["K_closed"] if agree else "?", "I": cells["I_sum"] if agree else "?",
    })
    return text if hyp_error is None else f"{text}  hyp_error = {hyp_error}\n"


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
    limit included; I_hyp, int or Fraction, is its str, the p/q text, in
    quotes, and the one string, hyp_error, is escaped by ``json.dumps``.
    """
    m, n, r, d, k_rec, k_red, k_clo, i_sum, i_hyp, i_sub, hyp_error, agree, valid = row
    return _RECORD_JSON_TEMPLATES[depth] % (
        m, n, r, d, k_rec, k_red, k_clo, i_sum,
        "null" if i_hyp is None else f'"{i_hyp}"', i_sub,
        k_clo if agree else "null", i_sum if agree else "null",
        _bool_str[agree], _bool_str[valid],
        "null" if hyp_error is None else json.dumps(hyp_error),
    )


_DIMS_RENDERERS: dict[str, Callable[[tuple], str]] = {
    "pretty": _record_pretty,
    "json": lambda row: _record_json(row, 0) + "\n",
    "csv": lambda row: _lines([_csv_row(CSV_COLUMNS), _record_csv(row)]),
}


# Table writers: each writes the blocks of ``_iter_blocks`` through ``write``
# and returns whether every row's routes agree. A zipped block is written as
# one text, made from its columns by ``_block_text``; any other block's rows
# are rendered and written one at a time. csv and json write each block as
# soon as it is computed and keep none, so a row past the digit limit, which
# ``_block`` never leaves in a zipped block, ends the stream at its record;
# the pretty table needs every row's width before its first line, so it
# keeps each row's cells, not the row, and writes nothing until the last
# block is in. ``_iter_blocks`` raises DomainError before a writer runs, so
# the only ValueError a writer meets is the digit limit's.

# A zipped block's records are written from one record text in which r, K, I
# and the validity text are the gaps \0, \1, \2 and \3, and m, n and D the
# marks \4, \5 and \6: control characters that no record text holds.
_GAPS = re.compile("[\0-\3]")


def _record_texts(blocks: Iterable, render: Callable[[tuple], str]) -> Iterator[tuple[str, bool]]:
    """(text, agree) for each zipped block as one text, and for each row of any other block.

    The template is what ``render`` writes of a row whose m, n, D, r, K and I
    are their marks, and whose validity, its one false flag, becomes its gap.
    ``order`` lists the gaps as they come, and each is then the gap \\0.
    """
    marked = next(_rows(("\4", "\5", "\6", ["\0"], ["\1"], ["\2"], [False])))
    template = render(marked).replace(_bool_str[False], "\3")
    order = [*map(ord, _GAPS.findall(template))]
    template = _GAPS.sub("\0", template)
    for block in blocks:
        if type(block) is tuple:
            yield _block_text(block, template, order), True
        else:
            for row in block:
                yield render(row), row[_AGREE]


def _block_text(block: tuple, marked: str, order: list[int]) -> str:
    """The records of a zipped block, from the record text of ``_record_texts``.

    m, n and D fill their marks, once per block, and the gaps split the text
    into pieces that every row shares. Each record is those pieces zipped
    with the columns of the gaps, in ``order``, each entry of which is made
    text once (by repr, a builtin call that is faster than str's).
    """
    m, n, d, rs, k, i, valid = block
    flags = [*map(_bool_str.__getitem__, valid)]
    columns = [*map(repr, rs)], [*map(repr, k)], [*map(repr, i)], flags
    pieces = marked.replace("\4", repr(m)).replace("\5", repr(n)).replace("\6", repr(d)).split("\0")
    parts = [*chain.from_iterable(zip(map(repeat, pieces), map(columns.__getitem__, order)))]
    return "".join(map("".join, zip(*parts, repeat(pieces[-1]))))


def _write_csv(blocks: Iterable, write: Callable[[str], Any]) -> bool:
    write(_csv_row(CSV_COLUMNS) + "\n")
    agree = True
    for text, ok in _record_texts(blocks, lambda row: _record_csv(row) + "\n"):
        write(text)
        agree = agree and ok
    return agree


def _write_json(blocks: Iterable, write: Callable[[str], Any]) -> bool:
    # The bytes of json.dumps(list_of_records, indent=2) + "\n", one block at a
    # time: each item follows ",\n", which is "[\n" before the first.
    agree, first = True, True
    for text, ok in _record_texts(blocks, lambda row: ",\n" + _record_json(row, 1)):
        write("[" + text[1:] if first else text)
        agree, first = agree and ok, False
    write("[]\n" if first else "\n]\n")
    return agree


def _write_pretty(blocks: Iterable, write: Callable[[str], Any]) -> bool:
    # The csv table's lines, split at their commas, which no cell holds.
    lines: list[list[str]] = []
    agree = _write_csv(blocks, lambda text: lines.extend(s.split(",") for s in text.splitlines()))
    widths = [max(len(line[col]) for line in lines) for col in range(len(CSV_COLUMNS))]
    for line in lines:
        write("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip() + "\n")
    return agree


_TABLE_WRITERS: dict[str, Callable[..., bool]] = {
    "pretty": _write_pretty,
    "json": _write_json,
    "csv": _write_csv,
}


# ---------------------------------------------------------------------------
# classify rendering

def _violation_parts(v: Any) -> list[str]:
    # The pretty report and classify's CSV join these: the condition, then
    # j (point tests only), k and the value, each as name=value.
    j = [f"j={v.j}"] if v.j is not None else []
    return [v.condition, *j, f"k={v.k}", f"value={format_rational(v.value)}"]


# The report as json.dumps(indent=2) writes it, and a violation as it sits
# in the report's list, at depth 2. Every value is an int, a bool, null, a
# nested template or ASCII p/q text or condition name, none of which needs
# escaping; the config's keys and values are those of config_to_json_dict.
_VIOLATION_JSON = (
    '    {\n      "condition": "%s",\n      "j": %s,\n      "k": %s,\n      "value": "%s"\n    }'
)
_CLASSIFY_JSON = (
    '{\n  "config": {\n    "m": %s,\n    "g": "%s",\n    "lambdas": %s\n  },\n'
    '  "lambda_infinity": "%s",\n  "resonant_indices": %s,\n  "r": %s,\n'
    '  "violations": %s,\n  "assumption_valid": %s,\n  "dimensions": %s\n}\n'
)


def _json_list(items: Sequence[str], pad: str) -> str:
    # A list whose items are already indented one level deeper than ``pad``.
    return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"


def _classify_json(cfg: Any, report: ResonanceReport, row: tuple | None) -> str:
    config = config_to_json_dict(cfg)
    return _CLASSIFY_JSON % (
        config["m"], config["g"],
        _json_list([f'      "{lam}"' for lam in config["lambdas"]], "    "),
        format_rational(report.lambda_infinity),
        _json_list([f"    {j}" for j in report.resonant_indices], "  "),
        report.r,
        _json_list([_VIOLATION_JSON % (
            v.condition, "null" if v.j is None else v.j, v.k, format_rational(v.value)
        ) for v in report.violations], "  "),
        _bool_str[report.assumption_valid],
        "null" if row is None else _record_json(row, 1).lstrip(),
    )


def _classify_pretty(cfg: Any, report: ResonanceReport, row: tuple | None) -> str:
    config = config_to_json_dict(cfg)
    lines = [
        f"config: m={config['m']} g={config['g']} lambdas=[{', '.join(config['lambdas'])}]",
        f"lambda_infinity = {format_rational(report.lambda_infinity)}",
        f"resonant_indices = [{', '.join(str(j) for j in report.resonant_indices)}]",
        f"r = {report.r}",
    ]
    if report.violations:
        lines.append("violations:")
        for v in report.violations:
            condition, *parts = _violation_parts(v)
            lines.append(f"  {condition}: {' '.join(parts)}")
    else:
        lines.append("violations: none")
    lines.append(f"assumption_valid = {_bool_str[report.assumption_valid]}")
    out = _lines(lines)
    if row is not None:
        out += "\n" + _record_pretty(row)
    return out


# Classify's CSV columns from D onward are the record's, blank when the
# assumptions fail and there is no record.
_CLASSIFY_RECORD_FROM = CSV_COLUMNS.index("D")


def _classify_csv(cfg: Any, report: ResonanceReport, row: tuple | None) -> str:
    cells = {
        "m": str(cfg.m),
        "n": str(cfg.n),
        "r": str(report.r),
        "lambda_infinity": format_rational(report.lambda_infinity),
        "assumption_valid": _bool_str[report.assumption_valid],
        "violations": ";".join(":".join(_violation_parts(v)) for v in report.violations),
    }
    record = _record_cells(row) if row is not None else [""] * len(CSV_COLUMNS)
    cells.update(zip(CSV_COLUMNS[_CLASSIFY_RECORD_FROM:], record[_CLASSIFY_RECORD_FROM:]))
    return _lines([_csv_row(list(cells)), _csv_row(list(cells.values()))])


_CLASSIFY_RENDERERS = {
    "pretty": _classify_pretty,
    "json": _classify_json,
    "csv": _classify_csv,
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
    # A C0 control or DEL, as in a path the user gave, is written as \xNN, so
    # the error stays one line and sends the terminal no control bytes.
    message = re.sub(r"[\x00-\x1f\x7f]", lambda c: f"\\x{ord(c[0]):02x}", message)
    print(f"selbergdim {args.command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _row(m: int, n: int, r: int) -> tuple:
    """The row of (m, n, r), checked by ``_validate``, under the interpreter's digit limit.

    A block of one r is built as a single query, a generator of its one row.
    """
    _validate(m, n, r)
    return next(_block(m, n, (r,), _digit_limit()))


def _cmd_dims(args: argparse.Namespace) -> int:
    row = _row(args.m, args.n, args.r)
    sys.stdout.write(_DIMS_RENDERERS[args.format](row))
    return EXIT_OK if row[_AGREE] else EXIT_DISAGREEMENT


def _cmd_table(args: argparse.Namespace) -> int:
    # _iter_blocks checks the bounds before anything is opened or written.
    blocks = _iter_blocks(args.m_range, args.n_range, _R_POLICY_NAMES[args.r_policy], _digit_limit())
    write_table = _TABLE_WRITERS[args.format]
    if args.out is not None:
        # A path with a NUL byte makes open() raise ValueError. Around the
        # writes only OSError is caught: a ValueError there is the digit
        # limit's, and main reports it.
        try:
            handle = open(args.out, "w", encoding="utf-8", newline="")
        except (OSError, ValueError) as exc:
            return _usage_error(args, f"cannot write {args.out}: {exc}")
        try:
            with handle:
                agree = write_table(blocks, handle.write)
        except OSError as exc:
            return _usage_error(args, f"cannot write {args.out}: {exc}")
    else:
        agree = write_table(blocks, sys.stdout.write)
    return EXIT_OK if agree else EXIT_DISAGREEMENT


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    # ValueError: a path with a NUL byte, or text that is not UTF-8.
    except (OSError, ValueError) as exc:
        return _usage_error(args, f"cannot read {args.config}: {exc}")
    cfg = config_from_json(text)
    report = classify(cfg)
    row = _row(cfg.m, cfg.n, report.r) if report.assumption_valid else None
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
        choices=_R_POLICY_NAMES,
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


def _direct_table(command: _Parser) -> tuple:
    """A subcommand's one-value options by string, positionals, required dests, defaults."""
    actions = command._actions
    plain = [a for a in actions if type(a) is argparse._StoreAction and a.nargs is None]
    return (
        {option: a for a in plain for option in a.option_strings},
        [a for a in plain if not a.option_strings],
        {a.dest for a in actions if a.required},
        {**{a.dest: a.default for a in actions if a.default is not argparse.SUPPRESS},
         **command._defaults},
    )


# Built once at import: construction costs more than parsing, and parsing
# leaves the parsers unchanged, so every call to ``main`` can share them.
_PARSER, _SUBPARSERS = _build_parser()
_DIRECT = {name: _direct_table(command) for name, command in _SUBPARSERS.items()}


def _parse_direct(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``_PARSER.parse_args(argv)`` returns, or None where argparse must decide.

    ``argv[0]`` names a subcommand, and each later token is an exact option
    string followed by a value, or the next positional value. No value
    starts with ``-``, each passes its action's ``type`` and ``choices``, no
    action is given twice and every required one is given. Anything else
    (``-h``, ``--opt=value``, ``-m3``, an abbreviation, ``--``) returns None.
    """
    if not argv or argv[0] not in _DIRECT:
        return None
    options, positionals, required, defaults = _DIRECT[argv[0]]
    pending = iter(positionals)
    values: dict[str, Any] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            action, token = options[token], next(tokens, "-")
        else:
            action = next(pending, None)
        if action is None or action.dest in values or token.startswith("-"):
            return None
        # The exceptions argparse turns into an "invalid value" error.
        try:
            value = (action.type or str)(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    complete = required <= values.keys()
    return argparse.Namespace(**{**defaults, **values, "command": argv[0]}) if complete else None


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``: the direct parse, and argparse for help and every error."""
    args = _parse_direct(argv)
    return _PARSER.parse_args(argv) if args is None else args


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    # Input outside the domain.
    except (DomainError, ConfigParseError) as exc:
        return _usage_error(args, str(exc))
    # Once the domain and parse checks pass, the only ValueError a command
    # raises is the int-to-str digit limit's: argparse and _cmd_verify vet
    # run_suites' arguments, _iter_blocks raises DomainError before any write,
    # config_from_json wraps its own ValueErrors, the engine raises none on
    # validated input, and the commands catch open()'s themselves.
    except ValueError:
        return _usage_error(args, _TOO_MANY_DIGITS.format(_digit_limit()))
    # Rows too large for the memory the process may take (a K row has r + 1 entries).
    except MemoryError:
        return _usage_error(args, "out of memory: the rows of this request do not fit")
    # A count past the largest index a list or range can hold (sys.maxsize),
    # such as classify's tests up to m = 10^30 or a K row of 10^30 entries.
    except OverflowError:
        return _usage_error(args, "too large: this request counts past the interpreter's index limit")


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
