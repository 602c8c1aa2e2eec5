"""Seeded and exhaustive verification suites behind ``selbergdim verify``.

A suite is its inputs (seeded draws or a fixed grid) plus a check of one
input, which returns None when the input passes and otherwise the text
that follows the inputs in a counterexample. One driver runs every suite:
it hands the suite's inputs one generator seeded with ``seed``, which a
grid ignores, and keeps the passed, failed and skipped counts and the
first counterexample.

Randomized suites draw parameters from a self-contained 64-bit linear
congruential generator (documented in the README) rather than the host
language's RNG, so a reported counterexample is reproducible from
(suite, seed, cases) alone, in any reimplementation. A seeded suite's
inputs are one ``Lcg.draws`` generator. Each draw's rationals come as
scaled ints, (L, p1 L/q1, ...) with L the lcm of the denominators as
drawn, in the same order as one ``rational()`` call each, and go straight
to the identity checks' int forms: a passing check builds no Fraction, and
a counterexample prints each input as the reduced p/q. Draws that hit a
declared error case (a pole before termination, a vanishing closed-form
denominator) are skipped and counted; ``cases`` counts actual checks.

Exhaustive suites ignore seed and cases:

* ``hockey``      -- hockey-stick identity for all 0 <= s < r <= 40;
* ``routes``      -- every dimension route agrees, D = K + I, and the
                     hypergeometric value is integral, on the grid
                     1 <= m <= 8, 2 <= n <= 10, 0 <= r <= n: each row of
                     ``dims._iter_rows``, one block per (m, n), must equal
                     the single query at its r, which sums the D column
                     and runs the 3F2 kernel there, and the checks run on
                     that query's values;
* ``closedforms`` -- image-dimension closed forms at r = n and r = n - 1,
                     plus the parity-split product form, for
                     2 <= m <= 8, m <= n <= 12.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from . import dims, hyper
from .exactnum import binom, format_rational, hockey_stick_check

__all__ = ["Lcg", "SuiteResult", "run_suites"]

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

    def rational(self) -> Fraction:
        """Draw numerator in [-8, 8], then denominator in [1, 4]."""
        return Fraction(self.randint(-8, 8), self.randint(1, 4))

    def draws(self, k: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        """Endless draws (L, p1 L/q1, ..., pk L/qk, j), all plain ints.

        Each draw is k ``rational()`` draws, taken over L, the lcm of their
        denominators as drawn, then j = ``randint(lo, hi)``: the same 2k + 1
        steps in the same order. L may carry a factor the reduced rationals
        do not need (2/2 gives L = 2). A draw starts from ``self.state`` and
        writes it back once it is made, so other draws may come between.
        """
        span = hi - lo + 1
        while True:
            state = self.state
            pairs, L = [], 1
            for _ in range(k):
                state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
                p = (state >> 33) % 17 - 8
                state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
                q = (state >> 33) % 4 + 1
                pairs.append((p, q))
                L = math.lcm(L, q)
            state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
            self.state = state
            yield (L, *[p * (L // q) for p, q in pairs], lo + (state >> 33) % span)


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


# A check takes one input and returns None when it holds, else the text
# (possibly empty) that follows the inputs in a counterexample. A seeded
# check takes its draw as it comes from Lcg.draws, (L, P1, ..., Pk, j),
# and calls the identity's int form.


def _pfaff(L: int, A: int, B: int, C: int, j: int) -> str | None:
    return None if hyper._pfaff_scaled(L, A, B, C, j) else ""


def _residual(pair: tuple[int, int]) -> str | None:
    num, den = pair
    return None if num == 0 else f" residual={format_rational(Fraction(num, den))}"


def _contiguity(L: int, A: int, B: int, C: int, j: int) -> str | None:
    return _residual(hyper._contiguity_scaled(L, A, B, C, j))


def _pochhammer(L: int, A: int, B: int, k: int) -> str | None:
    return _residual(hyper._pochhammer_scaled(L, A, B, k))


def _unscaled(draw: tuple[int, ...]) -> tuple[Fraction | int, ...]:
    """A seeded draw (L, P1, ..., Pk, j) as its inputs: each P/L reduced, then j."""
    L, *scaled, last = draw
    return (*(Fraction(p, L) for p in scaled), last)


def _hockey(r: int, s: int) -> str | None:
    return None if hockey_stick_check(r, s) else ""


# The fields of a row that the routes check reads, by name in one call.
_ROUTES_TESTED = operator.itemgetter(
    *map(dims._ROW_FIELDS.index,
         ("m", "n", "r", "routes_agree", "D", "K_closed", "I_sum", "I_hyp"))
)


def _routes(*row: object) -> str | None:
    """Check one row of ``dims._iter_rows`` against its single query, ``_block(m, n, (r,))``.

    An agreeing swept block neither sums the D column nor runs the 3F2
    kernel; the single query does both at r, as ``dims`` does. The row must
    equal it, and the query's values must agree, add up to D and hold an
    integral I_hyp, kept as the int (any other is a non-integral Fraction,
    or None on a series error). A counterexample shows the query's values.
    """
    m, n, r, *_ = _ROUTES_TESTED(row)
    single = next(dims._block(m, n, (r,)))
    *_, agree, d, k_closed, i_sum, i_hyp = _ROUTES_TESTED(single)
    if single == row and agree and d == k_closed + i_sum and type(i_hyp) is int:
        return None
    return (": D={D} K=({K_recursion},{K_reduction},{K_closed}) "
            "I=({I_sum},{I_hyp},{I_subtract})").format_map(dict(zip(dims._ROW_FIELDS, single)))


def _closedforms(m: int, n: int) -> str | None:
    extremes = dims.dim_I_extremes(m, n)
    ok = (
        extremes.at_n == dims.dim_I_sum(m, n, n)
        and extremes.at_n_minus_1 == dims.dim_I_sum(m, n, n - 1)
        and extremes.at_n == binom(n, m) - binom(n, m - 1)
        and extremes.at_n_minus_1 == binom(n - 1, m)
        and dims.dim_I_full_resonance_product(m, n) == extremes.at_n
    )
    return None if ok else ""


class _Suite(NamedTuple):
    names: str  # the inputs' names, as a counterexample prints them
    check: Callable[..., str | None]
    cases: int | None  # default number of checks; None for an exhaustive suite
    inputs: Callable[[Lcg], Iterable[tuple]]  # the draws of rng, or the grid, which ignores it


_SUITES: dict[str, _Suite] = {
    "pfaff": _Suite(
        "a b c j", _pfaff, 500,
        lambda rng: rng.draws(3, 1, 8),
    ),
    "contiguity": _Suite(
        "a b c j", _contiguity, 200,
        lambda rng: rng.draws(3, 0, 10),
    ),
    "pochhammer": _Suite(
        "a b k", _pochhammer, 200,
        lambda rng: rng.draws(2, 0, 10),
    ),
    "hockey": _Suite(
        "r s", _hockey, None,
        lambda _: ((r, s) for r in range(1, 41) for s in range(r)),
    ),
    "routes": _Suite(
        "m n r", _routes, None,
        lambda _: dims._iter_rows((1, 8), (2, 10)),
    ),
    "closedforms": _Suite(
        "m n", _closedforms, None,
        lambda _: ((m, n) for m in range(2, 9) for n in range(m, 13)),
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
    # cases is None or >= 1 (run_suites checks it); an exhaustive suite runs its whole grid.
    limit = None if suite.cases is None else cases or suite.cases
    passed = failed = skipped = 0
    counterexample = None
    for args in suite.inputs(Lcg(seed)):
        try:
            detail = suite.check(*args)
        except hyper.HyperEvalError:
            skipped += 1
            continue
        if detail is None:
            passed += 1
        else:
            failed += 1
            if counterexample is None:
                shown = args if suite.cases is None else _unscaled(args)
                named = zip(suite.names.split(), shown)
                counterexample = " ".join(f"{k}={format_rational(v)}" for k, v in named) + detail
        if passed + failed == limit:
            break
    return SuiteResult(name, passed, failed, skipped, counterexample)


def run_suites(suite: str, seed: int = 0, cases: int | None = None) -> list[SuiteResult]:
    """Run one named suite, or all of them, deterministically.

    ``cases`` applies to the randomized suites only; None, the only default
    value, means the per-suite default (pfaff 500, contiguity 200,
    pochhammer 200), and exhaustive suites ignore it. Raises ValueError for
    an unknown suite name, a ``seed`` or ``cases`` that is not an int (a
    bool is not one), or ``cases < 1``.
    """
    if suite != "all" and suite not in _SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES + ('all',))}"
        )
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if cases is not None and type(cases) is not int:
        raise ValueError(f"cases must be an int or None, got {cases!r}")
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    names = SUITE_NAMES if suite == "all" else (suite,)
    return [_run(name, seed, cases) for name in names]
