"""Resonance classification of an exponent configuration.

A configuration is the data of the multivalued integrand: m integration
variables, a coupling exponent g on each difference (x_i - x_j), and one
exponent lambda_k per marked point z_k. An index j is *resonant* when
2 lambda_j + g is an integer; the count r of resonant indices is what the
dimension formulas depend on.

The dimension formulas are only asserted under non-resonance of every
other divisor class, which boils down to three families of integrality
tests (with C(k, 2) = k(k-1)/2 and C(1, 2) = 0):

* ``point``:     k lambda_j + C(k, 2) g  must not be an integer, for every
                 point j, for k = 1 and 3 <= k <= m;
* ``infinity``:  k lambda_inf + C(k, 2) g  must not be an integer for
                 1 <= k <= m, where lambda_inf = -sum(lambda) - (m-1) g;
* ``diagonal``:  C(k, 2) g  must not be an integer for 2 <= k <= m.

``classify`` is total: it reports the resonant index set and every failed
test exhaustively (useful when tuning exponents), and never raises.
``dims_for_config`` refuses to apply the dimension formulas when any
assumption fails, because nothing is claimed about that regime.

All membership tests are exact. g and the lambdas are put over their
common denominator L as plain ints (:func:`selbergdim.exactnum._scale`),
so each test asks whether an int is divisible by L; there is no tolerance
anywhere.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from fractions import Fraction

from .dims import DimensionRecord, DimQuery, compute_record
from .exactnum import _Frozen, _scale, as_fraction, format_rational, parse_rational

__all__ = [
    "ExponentConfig",
    "Violation",
    "ResonanceReport",
    "AssumptionViolatedError",
    "ConfigParseError",
    "classify",
    "dims_for_config",
    "config_from_json",
    "config_to_json_dict",
]

POINT = "point"
INFINITY = "infinity"
DIAGONAL = "diagonal"


class ConfigParseError(ValueError):
    """A configuration document that does not parse; message carries the field path."""


class ExponentConfig(_Frozen):
    """Exponents (g, lambda_1..lambda_n) of the integrand, with m variables."""

    m: int
    g: Fraction
    lambdas: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")
        object.__setattr__(self, "g", as_fraction(self.g))
        if isinstance(self.lambdas, (str, bytes)):  # not split into its characters
            raise TypeError(f"lambdas must be a sequence of rationals, got {self.lambdas!r}")
        object.__setattr__(self, "lambdas", tuple(as_fraction(lam) for lam in self.lambdas))
        if len(self.lambdas) < 1:
            raise ValueError("at least one lambda exponent is required")

    @property
    def n(self) -> int:
        return len(self.lambdas)


class Violation(_Frozen):
    """One failed non-resonance test.

    ``condition`` is one of ``point``/``infinity``/``diagonal``; ``j`` is the
    1-based point index (point condition only); ``k`` the coincidence order;
    ``value`` the offending integer value of the tested combination.
    """

    condition: str
    k: int
    value: Fraction
    j: int | None = None


class ResonanceReport(_Frozen):
    """Classification verdict for one configuration."""

    resonant_indices: tuple[int, ...]
    lambda_infinity: Fraction
    violations: tuple[Violation, ...]

    @property
    def r(self) -> int:
        return len(self.resonant_indices)

    @property
    def assumption_valid(self) -> bool:
        return not self.violations


class AssumptionViolatedError(Exception):
    """Raised when dimension formulas are requested outside their hypotheses."""

    def __init__(self, report: ResonanceReport):
        conditions = ", ".join(sorted({v.condition for v in report.violations}))
        super().__init__(
            f"{len(report.violations)} non-resonance assumption(s) violated ({conditions})"
        )
        self.report = report


def classify(cfg: ExponentConfig) -> ResonanceReport:
    """Classify a configuration: resonant index set plus every failed assumption.

    Resonance of index j means 2 lambda_j + g is an integer; the resonant
    set is forced by the data (there is no way to opt a resonant index
    out). Violations are collected exhaustively over all (condition, j, k)
    in deterministic order: point tests first (k ascending, then j), then
    infinity, then diagonal.

    Every test is exact integer divisibility: g and the lambdas are scaled
    to ints G and lam_j over their common denominator L, and a combination
    such as 2 lam_j + G is integral exactly when L divides it. One generator
    yields every non-resonance combination, times L, in report order, and
    one filter keeps those L divides. A Fraction is built only for
    ``lambda_infinity`` and for each violation's value, which is the
    integer quotient.
    """
    m = cfg.m
    L, G, *lams = _scale(cfg.g, *cfg.lambdas)
    lam_inf = -sum(lams) - (m - 1) * G

    resonant = tuple(j for j, lam in enumerate(lams, start=1) if (2 * lam + G) % L == 0)

    def tests() -> Iterator[tuple[str, int | None, int, int]]:
        # Every test as (condition, j, k, its combination times L), in report order.
        for k in (1, *range(3, m + 1)):
            shift = math.comb(k, 2) * G
            for j, lam in enumerate(lams, start=1):
                yield POINT, j, k, k * lam + shift
        for k in range(1, m + 1):
            yield INFINITY, None, k, k * lam_inf + math.comb(k, 2) * G
        for k in range(2, m + 1):
            yield DIAGONAL, None, k, math.comb(k, 2) * G

    violations = tuple(Violation(condition, k, Fraction(value // L), j)
                       for condition, j, k, value in tests() if value % L == 0)
    return ResonanceReport(resonant, Fraction(lam_inf, L), violations)


def dims_for_config(cfg: ExponentConfig) -> tuple[ResonanceReport, DimensionRecord]:
    """Classify, then compute the dimension record for (m, n, r) with r from the report.

    Raises:
        AssumptionViolatedError: some non-resonance assumption fails; the
            dimension formulas are not asserted there.
    """
    report = classify(cfg)
    if not report.assumption_valid:
        raise AssumptionViolatedError(report)
    record = compute_record(DimQuery(m=cfg.m, n=cfg.n, r=report.r))
    return report, record


class _LongInt(str):
    """A JSON integer literal with more digits than the int-to-str limit, kept as its text."""


def _json_int(text: str) -> int | str:
    """``int(text)``, or, past the int-to-str digit limit, the text as a ``_LongInt``."""
    try:
        return int(text)
    except ValueError:  # json passes only well-formed literals, so this is the digit limit
        return _LongInt(text)


def config_from_json(doc: str | bytes | dict[str, object]) -> ExponentConfig:
    """Parse the JSON shape {"m": int, "g": "p/q", "lambdas": ["p/q", ...]}.

    Error messages name the offending field (and list position for
    lambdas) so a malformed rational is easy to locate. So does the one
    for a value past the int-to-str digit limit: ``_json_int`` keeps an
    integer literal past it as a ``_LongInt``, which m names, and
    ``parse_rational`` raises it for g and each lambda.
    """
    if isinstance(doc, (str, bytes)):
        try:
            data = json.loads(doc, parse_int=_json_int)
        # JSONDecodeError, UnicodeDecodeError, and the RecursionError of
        # arrays or objects nested past the stack.
        except (ValueError, RecursionError) as exc:
            raise ConfigParseError(f"not valid JSON: {exc}") from exc
    else:
        data = doc
    if not isinstance(data, dict):
        raise ConfigParseError("top-level JSON value must be an object")

    unknown = sorted(set(data) - {"m", "g", "lambdas"})
    if unknown:
        raise ConfigParseError(f"unknown field(s): {', '.join(unknown)}")
    for field in ("m", "g", "lambdas"):
        if field not in data:
            raise ConfigParseError(f"missing field {field!r}")

    m = data["m"]
    if type(m) is _LongInt:  # its digits fail parse_rational too: the digit limit's error, for m
        _rational_field("m", m)
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ConfigParseError(f"m: expected an integer >= 1, got {m!r}")
    g = _rational_field("g", data["g"])
    raw_lambdas = data["lambdas"]
    if not isinstance(raw_lambdas, list) or not raw_lambdas:
        raise ConfigParseError("lambdas: expected a nonempty list of rational strings")
    lambdas = tuple(_rational_field(f"lambdas[{i}]", item) for i, item in enumerate(raw_lambdas))
    return ExponentConfig(m=m, g=g, lambdas=lambdas)


def _rational_field(path: str, text: object) -> Fraction:
    """``parse_rational(text)``, its ValueError raised as a ConfigParseError that names ``path``."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc


def config_to_json_dict(cfg: ExponentConfig) -> dict[str, object]:
    """The canonical JSON object for a configuration (round-trips exactly)."""
    return {
        "m": cfg.m,
        "g": format_rational(cfg.g),
        "lambdas": [format_rational(lam) for lam in cfg.lambdas],
    }
