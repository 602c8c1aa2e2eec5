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

Exit codes:
    0  success (all routes agree / assumptions hold / all checks pass)
    1  usage, parse or I/O error
    2  route disagreement or a failed verification suite
    3  resonance assumptions violated (classify; report still printed)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .dims import DimensionRecord, DimQuery, DomainError, compute_record, table
from .exactnum import format_rational
from .resonance import (
    ConfigParseError,
    ResonanceReport,
    classify,
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

CSV_RECORD_HEADER = (
    "m,n,r,D,K_recursion,K_reduction,K_closed,"
    "I_sum,I_hyp,I_subtract,routes_agree,in_validity_range"
)


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


# ---------------------------------------------------------------------------
# record rendering

def _record_cells(rec: DimensionRecord) -> list[str]:
    q = rec.query
    return [
        str(q.m),
        str(q.n),
        str(q.r),
        str(rec.D),
        str(rec.K_recursion),
        str(rec.K_reduction),
        str(rec.K_closed),
        str(rec.I_sum),
        format_rational(rec.I_hyp) if rec.I_hyp is not None else "",
        str(rec.I_subtract),
        _bool_str(rec.routes_agree),
        _bool_str(rec.in_validity_range),
    ]


def _records_csv(records: Sequence[DimensionRecord]) -> str:
    lines = [CSV_RECORD_HEADER]
    lines.extend(",".join(_record_cells(rec)) for rec in records)
    return "\n".join(lines) + "\n"


def _record_json_dict(rec: DimensionRecord) -> dict[str, Any]:
    q = rec.query
    return {
        "m": q.m,
        "n": q.n,
        "r": q.r,
        "D": rec.D,
        "K_recursion": rec.K_recursion,
        "K_reduction": rec.K_reduction,
        "K_closed": rec.K_closed,
        "I_sum": rec.I_sum,
        "I_hyp": format_rational(rec.I_hyp) if rec.I_hyp is not None else None,
        "I_subtract": rec.I_subtract,
        "K": rec.K,
        "I": rec.I,
        "routes_agree": rec.routes_agree,
        "in_validity_range": rec.in_validity_range,
        "hyp_error": rec.hyp_error,
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
    return "\n".join(lines) + "\n"


def _records_pretty_table(records: Sequence[DimensionRecord]) -> str:
    header = CSV_RECORD_HEADER.split(",")
    rows = [header] + [_record_cells(rec) for rec in records]
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _render_records(records: Sequence[DimensionRecord], fmt: str, single: bool) -> str:
    if fmt == "csv":
        return _records_csv(records)
    if fmt == "json":
        if single:
            return json.dumps(_record_json_dict(records[0]), indent=2) + "\n"
        return json.dumps([_record_json_dict(rec) for rec in records], indent=2) + "\n"
    if single:
        return _record_pretty(records[0])
    return _records_pretty_table(records)


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
    doc = {
        "config": config_to_json_dict(cfg),
        "lambda_infinity": format_rational(report.lambda_infinity),
        "resonant_indices": list(report.resonant_indices),
        "r": report.r,
        "violations": [_violation_json(v) for v in report.violations],
        "assumption_valid": report.assumption_valid,
        "dimensions": _record_json_dict(record) if record is not None else None,
    }
    return json.dumps(doc, indent=2) + "\n"


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
    out = "\n".join(lines) + "\n"
    if record is not None:
        out += "\n" + _record_pretty(record)
    return out


def _classify_csv(
    cfg: Any, report: ResonanceReport, record: DimensionRecord | None
) -> str:
    header = (
        "m,n,r,lambda_infinity,assumption_valid,violations,"
        "D,K_recursion,K_reduction,K_closed,I_sum,I_hyp,I_subtract,"
        "routes_agree,in_validity_range"
    )
    cells = [
        str(cfg.m),
        str(cfg.n),
        str(report.r),
        format_rational(report.lambda_infinity),
        _bool_str(report.assumption_valid),
        ";".join(_violation_compact(v) for v in report.violations),
    ]
    if record is not None:
        cells.extend(_record_cells(record)[3:])  # D onward
    else:
        cells.extend([""] * 9)
    return header + "\n" + ",".join(cells) + "\n"


# ---------------------------------------------------------------------------
# verify rendering

def _verify_pretty(results: Sequence[SuiteResult]) -> str:
    lines = []
    for res in results:
        lines.append(
            f"{res.suite}: passed={res.passed} failed={res.failed} skipped={res.skipped}"
        )
        if res.counterexample is not None:
            lines.append(f"  counterexample: {res.counterexample}")
    n_failed = sum(1 for res in results if not res.ok)
    lines.append("all checks passed" if n_failed == 0 else f"{n_failed} suite(s) failed")
    return "\n".join(lines) + "\n"


def _verify_json(results: Sequence[SuiteResult], seed: int, cases: int | None) -> str:
    doc = {
        "seed": seed,
        "cases": cases,
        "results": [
            {
                "suite": res.suite,
                "passed": res.passed,
                "failed": res.failed,
                "skipped": res.skipped,
                "counterexample": res.counterexample,
            }
            for res in results
        ],
        "all_passed": all(res.ok for res in results),
    }
    return json.dumps(doc, indent=2) + "\n"


def _verify_csv(results: Sequence[SuiteResult]) -> str:
    lines = ["suite,passed,failed,skipped,counterexample"]
    lines.extend(
        f"{res.suite},{res.passed},{res.failed},{res.skipped},"
        f"{res.counterexample if res.counterexample is not None else ''}"
        for res in results
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand drivers

def _cmd_dims(args: argparse.Namespace) -> int:
    try:
        record = compute_record(DimQuery(m=args.m, n=args.n, r=args.r))
    except DomainError as exc:
        print(f"selbergdim dims: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(_render_records([record], args.format, single=True))
    return EXIT_OK if record.routes_agree else EXIT_DISAGREEMENT


def _cmd_table(args: argparse.Namespace) -> int:
    try:
        records = table(args.m_range, args.n_range, args.r_policy.replace("-", "_"))
    except DomainError as exc:
        print(f"selbergdim table: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rendered = _render_records(records, args.format, single=False)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"selbergdim table: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return EXIT_OK if all(rec.routes_agree for rec in records) else EXIT_DISAGREEMENT


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"selbergdim classify: error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = config_from_json(text)
    except ConfigParseError as exc:
        print(f"selbergdim classify: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = classify(cfg)
    record = None
    if report.assumption_valid:
        _, record = dims_for_config(cfg)

    if args.format == "json":
        sys.stdout.write(_classify_json(cfg, report, record))
    elif args.format == "csv":
        sys.stdout.write(_classify_csv(cfg, report, record))
    else:
        sys.stdout.write(_classify_pretty(cfg, report, record))
    return EXIT_OK if report.assumption_valid else EXIT_ASSUMPTION


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(args.suite, seed=args.seed, cases=args.cases)
    if args.format == "json":
        sys.stdout.write(_verify_json(results, args.seed, args.cases))
    elif args.format == "csv":
        sys.stdout.write(_verify_csv(results))
    else:
        sys.stdout.write(_verify_pretty(results))
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
    p_dims.add_argument(
        "--format", choices=("pretty", "json", "csv"), default="pretty", help="output format"
    )
    p_dims.set_defaults(func=_cmd_dims)

    p_table = sub.add_parser("table", help="compute a table of dimension records")
    p_table.add_argument("--m-range", type=_parse_range, required=True, metavar="LO..HI")
    p_table.add_argument("--n-range", type=_parse_range, required=True, metavar="LO..HI")
    p_table.add_argument(
        "--r-policy",
        choices=("all", "only-n", "only-n-minus-1"),
        default="all",
        help="which r values to include per (m, n)",
    )
    p_table.add_argument(
        "--format", choices=("pretty", "json", "csv"), default="csv", help="output format"
    )
    p_table.add_argument("--out", default=None, help="write to this file instead of stdout")
    p_table.set_defaults(func=_cmd_table)

    p_classify = sub.add_parser(
        "classify", help="classify an exponent configuration against the resonance conditions"
    )
    p_classify.add_argument(
        "config", help='JSON file: {"m": int, "g": "p/q", "lambdas": ["p/q", ...]}'
    )
    p_classify.add_argument(
        "--format", choices=("pretty", "json", "csv"), default="pretty", help="output format"
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
    p_verify.add_argument(
        "--format", choices=("pretty", "json", "csv"), default="pretty", help="output format"
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


# Built once at import: construction costs more than parsing, and parsing
# leaves the parser unchanged, so every call to ``main`` can share it.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    args = _PARSER.parse_args(argv)
    if getattr(args, "cases", None) is not None and args.cases < 1:
        _PARSER.error("--cases must be >= 1")
    return args.func(args)


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
