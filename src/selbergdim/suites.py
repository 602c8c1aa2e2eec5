"""Seeded and exhaustive verification suites behind ``selbergdim verify``.

A suite is its inputs (seeded draws or a fixed grid) plus a check of one
input. One driver runs every suite: it keeps the passed, failed and
skipped counts and the first counterexample, whose text the check builds
only when asked.

Randomized suites draw parameters from a self-contained 64-bit linear
congruential generator (documented in the README) rather than the host
language's RNG, so a reported counterexample is reproducible from
(suite, seed, cases) alone, in any reimplementation. Draws that hit a
declared error case (a pole before termination, a vanishing closed-form
denominator) are skipped and counted; ``cases`` counts actual checks.

Exhaustive suites ignore seed and cases:

* ``hockey``      -- hockey-stick identity for all 0 <= s < r <= 40;
* ``routes``      -- every dimension route agrees, D = K + I, and the
                     hypergeometric value is integral, on the grid
                     1 <= m <= 8, 2 <= n <= 10, 0 <= r <= n;
* ``closedforms`` -- image-dimension closed forms at r = n and r = n - 1,
                     plus the parity-split product form, for
                     2 <= m <= 8, m <= n <= 12.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from . import dims, hyper
from .exactnum import binom, format_rational, hockey_stick_check

__all__ = ["Lcg", "SuiteResult", "SUITE_NAMES", "DEFAULT_CASES", "run_suites"]

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator (Knuth's MMIX constants).

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64;
    each draw first steps the state, then maps the top 31 bits onto the
    requested range by remainder.
    """

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _LCG_MASK
        return lo + (self.state >> 33) % (hi - lo + 1)

    def rational(self, rng_num: int = 8, max_den: int = 4) -> Fraction:
        """Draw numerator in [-rng_num, rng_num], then denominator in [1, max_den]."""
        num = self.randint(-rng_num, rng_num)
        den = self.randint(1, max_den)
        return Fraction(num, den)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: int
    failed: int
    skipped: int
    counterexample: str | None

    @property
    def ok(self) -> bool:
        return self.failed == 0


# A check takes one input and returns (ok, detail): detail() is the text
# that follows the inputs in a counterexample, built only for a suite's
# first failure.
_Outcome = tuple[bool, Callable[[], str]]


def _no_detail() -> str:
    return ""


def _pfaff(a: Fraction, b: Fraction, c: Fraction, j: int) -> _Outcome:
    return hyper.pfaff_saalschutz_check(a, b, c, j), _no_detail


def _contiguity(a: Fraction, b: Fraction, c: Fraction, j: int) -> _Outcome:
    residual = hyper.contiguity_residual(a, b, c, j)
    return residual == 0, lambda: f" residual={format_rational(residual)}"


def _pochhammer(a: Fraction, b: Fraction, k: int) -> _Outcome:
    residual = hyper.pochhammer_identity_residual(a, b, k)
    return residual == 0, lambda: f" residual={format_rational(residual)}"


def _hockey(r: int, s: int) -> _Outcome:
    return hockey_stick_check(r, s), _no_detail


def _routes(m: int, n: int, r: int) -> _Outcome:
    rec = dims.compute_record(dims.DimQuery(m, n, r))
    ok = (
        rec.routes_agree
        and rec.D == rec.K_closed + rec.I_sum
        and rec.I_hyp is not None
        and rec.I_hyp.denominator == 1
    )
    return ok, lambda: (
        f": D={rec.D} K=({rec.K_recursion},{rec.K_reduction},{rec.K_closed}) "
        f"I=({rec.I_sum},{rec.I_hyp},{rec.I_subtract})"
    )


def _closedforms(m: int, n: int) -> _Outcome:
    extremes = dims.dim_I_extremes(m, n)
    ok = (
        extremes.at_n == dims.dim_I_sum(m, n, n)
        and extremes.at_n_minus_1 == dims.dim_I_sum(m, n, n - 1)
        and extremes.at_n == binom(n, m) - binom(n, m - 1)
        and extremes.at_n_minus_1 == binom(n - 1, m)
        and dims.dim_I_full_resonance_product(m, n) == extremes.at_n
    )
    return ok, _no_detail


class _Suite(NamedTuple):
    names: str  # the inputs' names, as a counterexample prints them
    check: Callable[..., _Outcome]
    cases: int | None  # default number of checks; None for an exhaustive suite
    inputs: Callable[..., Any]  # seeded: draw(rng) gives one input; else grid() gives all


_SUITES: dict[str, _Suite] = {
    "pfaff": _Suite(
        "a b c j", _pfaff, 500,
        lambda rng: (rng.rational(), rng.rational(), rng.rational(), rng.randint(1, 8)),
    ),
    "contiguity": _Suite(
        "a b c j", _contiguity, 200,
        lambda rng: (rng.rational(), rng.rational(), rng.rational(), rng.randint(0, 10)),
    ),
    "pochhammer": _Suite(
        "a b k", _pochhammer, 200,
        lambda rng: (rng.rational(), rng.rational(), rng.randint(0, 10)),
    ),
    "hockey": _Suite(
        "r s", _hockey, None,
        lambda: ((r, s) for r in range(1, 41) for s in range(r)),
    ),
    "routes": _Suite(
        "m n r", _routes, None,
        lambda: ((m, n, r) for m in range(1, 9) for n in range(2, 11) for r in range(n + 1)),
    ),
    "closedforms": _Suite(
        "m n", _closedforms, None,
        lambda: ((m, n) for m in range(2, 9) for n in range(m, 13)),
    ),
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)

DEFAULT_CASES: dict[str, int] = {
    name: suite.cases for name, suite in _SUITES.items() if suite.cases is not None
}


def _run(name: str, seed: int, cases: int | None) -> SuiteResult:
    """Check inputs until ``cases`` have passed or failed, or the grid ends.

    A check that raises a declared series error (a pole before termination,
    a vanishing closed-form denominator) counts its input as skipped.
    """
    suite = _SUITES[name]
    if suite.cases is None:
        inputs, cases = suite.inputs(), None
    else:
        inputs = map(suite.inputs, itertools.repeat(Lcg(seed)))
        cases = suite.cases if cases is None else cases
    passed = failed = skipped = 0
    counterexample = None
    for args in inputs:
        try:
            ok, detail = suite.check(*args)
        except hyper.HyperEvalError:
            skipped += 1
            continue
        if ok:
            passed += 1
        else:
            failed += 1
            if counterexample is None:
                named = zip(suite.names.split(), args)
                counterexample = " ".join(f"{k}={format_rational(v)}" for k, v in named) + detail()
        if passed + failed == cases:
            break
    return SuiteResult(name, passed, failed, skipped, counterexample)


def run_suites(suite: str, seed: int = 0, cases: int | None = None) -> list[SuiteResult]:
    """Run one named suite, or all of them, deterministically.

    ``cases`` applies to the randomized suites only; None, the only default
    value, means the per-suite default (pfaff 500, contiguity 200,
    pochhammer 200), and exhaustive suites ignore it. Raises ValueError for
    an unknown suite name or ``cases < 1``.
    """
    if suite != "all" and suite not in _SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES + ('all',))}"
        )
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    names = SUITE_NAMES if suite == "all" else (suite,)
    return [_run(name, seed, cases) for name in names]
