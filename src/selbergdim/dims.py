"""Dimension counts for the invariant twisted homology of a Selberg-type integrand.

For m integration variables, n marked points and r resonant exponents the
three quantities of interest are

* ``D`` -- the dimension of the full invariant (locally finite) twisted
  homology, ``D(m, n) = C(n+m-2, m)``;
* ``K`` -- the dimension of the kernel of the regularization map from
  compact to locally finite homology;
* ``I`` -- the dimension of its image, the space of regularizable cycles,
  with ``D = K + I``.

K and I are each computed by several mutually independent routes:

* ``dim_K_recursion`` peels off one resonant point at a time,
* ``dim_K_reduction`` drops two integration variables at a time,
* ``dim_K_closed`` is a single alternating binomial sum,
* ``dim_I_sum`` is the complementary alternating sum,
* ``dim_I_hyp`` packages that sum as a prefactored terminating 3F2, whose
  parameters are all halves of ints, so it calls the int series kernel
  directly over the denominator 2 and builds no parameter Fraction,
* the subtraction route recovers I as D - K.

The recursion and reduction routes are evaluated bottom-up: each builds
the whole row K(m, n, 0..n) from the base row of m's parity by one rolling
row per step m' -> m' + 2, so a query costs O(m n) integer additions at
constant stack depth. No route keeps a cache: ``compute_record`` builds both
rows for its one query, and ``iter_table`` builds them once per (m, n) and
reads every r of its loop from them; ``dim_D`` is one binomial. The two
routes keep their own formulas and share no intermediate values, so they
stay independent witnesses.

The two alternating sums share one term walk, ``_alternating_terms``. It
computes one ``dim_D`` and one ``binom`` at the deepest term
s = min(r, m // 2), M = m - 2s, and takes each next term from the last:

    D(M+2, n) = D(M, n) (n+M-1)(n+M) / ((M+1)(M+2))
    C(r, s-1) = C(r, s) s / (r-s+1)

Both divisions are exact: each dividend is the next value times the
divisor, D(M, n) (n+M-1)(n+M) = D(M+2, n) (M+1)(M+2) and
C(r, s) s = C(r, s-1) (r-s+1), so the walk stays on ints.
It walks upward, from small M to m, because the downward step would divide
by (n+M-1)(n+M), which is 0 at n = 1, M = 0. The row routes call ``dim_D``
themselves and share nothing with the walk, so they stay independent
witnesses; the walk's last term, D(m, n), is checked against ``dim_D``
through I_sum == D - K_closed.

``iter_table`` yields a table's records lazily, one at a time, so a caller
that writes each one out runs in constant memory; ``table`` is that
iterator collected into a list.

The domain is m >= 1, n >= 1 and 0 <= r <= n, each an exact int. One
function holds its rules and messages; ``DimQuery`` and every public route
call it, and raise DomainError outside the domain, so no route fails with
a TypeError or a wrong answer on a bool or a float.

Agreement of all routes is recorded, never assumed: ``compute_record``
fills every field and flags disagreement instead of raising. The closed
forms at full resonance (r = n) and one below it (r = n - 1) are exposed
separately, including the parity-split product form used to cross-check
the r = n value.

A note on conventions: the alternating sums use D(0, n) = 1 and
D(m, n) = 0 for m < 0, which is the unique choice under which they
reproduce the base cases K(2, n, r) = r and the closed forms at extreme
resonance. The recursion route never consumes D(0, n) because m = 2 is a
base case, so the two routes cannot disagree over it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Literal, NamedTuple, Sequence

from .exactnum import binom
from .hyper import HyperEvalError, _eval_scaled_3f2

__all__ = [
    "DomainError",
    "DimQuery",
    "DimensionRecord",
    "dim_D",
    "dim_K_recursion",
    "dim_K_reduction",
    "dim_K_closed",
    "dim_I_sum",
    "dim_I_hyp",
    "dim_I_extremes",
    "dim_I_full_resonance_product",
    "compute_record",
    "iter_table",
    "table",
    "RPolicy",
    "R_POLICIES",
]

RPolicy = Literal["all", "only_n", "only_n_minus_1"]
# The r values that ``table`` takes for one n, by policy.
_R_VALUES: dict[str, Callable[[int], Sequence[int]]] = {
    "all": lambda n: range(n + 1),
    "only_n": lambda n: (n,),
    "only_n_minus_1": lambda n: (n - 1,),
}
R_POLICIES: tuple[str, ...] = tuple(_R_VALUES)


class DomainError(ValueError):
    """An (m, n, r) query outside the defined domain."""


def _validate(m: int, n: int, r: int) -> None:
    """The (m, n, r) domain: exact ints, m >= 1, n >= 1, 0 <= r <= n.

    ``DimQuery`` and every route call this, so each rule and message lives
    here. The ``type(v) is int`` test rejects bool and costs no more than a
    range test, which matters because one record runs this four times: in
    ``DimQuery`` and in the three routes it calls by their public names.
    """
    if not type(m) is type(n) is type(r) is int:
        name, value = next((k, v) for k, v in (("m", m), ("n", n), ("r", r)) if type(v) is not int)
        raise DomainError(f"{name} must be an int, got {value!r}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0 <= r <= n:
        raise DomainError(f"r must satisfy 0 <= r <= n={n}, got {r}")


@dataclass(frozen=True)
class DimQuery:
    """A dimension query: m >= 1 variables, n >= 1 points, 0 <= r <= n resonant.

    Each field must be an int (bool is rejected); anything else raises
    DomainError here rather than a TypeError deep inside a route.
    """

    m: int
    n: int
    r: int

    def __post_init__(self) -> None:
        _validate(self.m, self.n, self.r)


@dataclass(frozen=True)
class DimensionRecord:
    """Every route's answer for one query, plus the agreement verdicts.

    ``I_hyp`` is kept as an exact rational (its integrality is part of what
    is being verified); it is None exactly when ``hyp_error`` is set, which
    can only happen outside the n >= 2 regime. ``routes_agree`` requires all
    three K routes and all three I routes to coincide. ``in_validity_range``
    is the sanity check that every computed dimension is a plausible one:
    nonnegative and K <= D.
    """

    query: DimQuery
    D: int
    K_recursion: int
    K_reduction: int
    K_closed: int
    I_sum: int
    I_hyp: Fraction | None
    I_subtract: int
    hyp_error: str | None
    routes_agree: bool
    in_validity_range: bool

    @property
    def K(self) -> int | None:
        """The agreed kernel dimension, or None if the routes disagree."""
        return self.K_closed if self.routes_agree else None

    @property
    def I(self) -> int | None:
        """The agreed image dimension, or None if the routes disagree."""
        return self.I_sum if self.routes_agree else None


def dim_D(m: int, n: int) -> int:
    """Total invariant dimension C(n+m-2, m), with D(0, n) = 1 and D(m<0, n) = 0.

    The out-of-range conventions make the alternating sums over s truncate
    by themselves. m and n must be exact ints, as for every route; the row
    builders call this once per step, so the test is one type comparison.
    """
    if not type(m) is type(n) is int:
        _validate(m, n, 0)  # raises the type error, which it tests first
    if m < 0:
        return 0
    if m == 0:
        return 1
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return binom(n + m - 2, m)


# The three K routes share the same base cases: K(m, n, 0) = 0, K(1, n, r) = 0,
# and K(2, n, r) = r. The last is imported as an axiom (rank one kernel per
# resonant double point when m = 2), not re-derived here.


def _k_base_row(m: int, n: int) -> list[int]:
    """K(m', n, 0..n) at the bottom of m's parity chain: m' = 1 or m' = 2."""
    return list(range(n + 1)) if m % 2 == 0 else [0] * (n + 1)


def _k_recursion_row(m: int, n: int) -> list[int]:
    """K(m, n, 0..n) by the recursion of ``dim_K_recursion``."""
    row = _k_base_row(m, n)
    for step in range(4 - m % 2, m + 1, 2):
        d = dim_D(step - 2, n)
        # new[r] = D(m'-2, n) + new[r-1] - old[r-1], from new[0] = 0.
        row = list(itertools.accumulate((d - old for old in row[:-1]), initial=0))
    return row


def dim_K_recursion(m: int, n: int, r: int) -> int:
    """Kernel dimension via the peel-one-resonant-point recursion.

        K(m, n, r) = D(m-2, n) + K(m, n, r-1) - K(m-2, n, r-1)

    for m >= 3, on top of the shared base cases. Evaluated bottom-up as
    the whole row over r, in O(m n) additions and constant stack depth.
    """
    _validate(m, n, r)
    return _k_recursion_row(m, n)[r]


def _k_reduction_row(m: int, n: int) -> list[int]:
    """K(m, n, 0..n) by the reduction of ``dim_K_reduction``."""
    row = _k_base_row(m, n)
    for step in range(4 - m % 2, m + 1, 2):
        d = dim_D(step - 2, n)
        # new[r] = r D(m'-2, n) - (old[1] + ... + old[r-1]); old[0] = 0, so
        # the running prefix sum of old[0..r-1] is the subtrahend.
        prefix = itertools.accumulate(row[:-1], initial=0)
        row = [r * d - acc for r, acc in enumerate(prefix)]
    return row


def dim_K_reduction(m: int, n: int, r: int) -> int:
    """Kernel dimension via the drop-two-variables reduction.

        K(m, n, r) = r D(m-2, n) - K(m-2, n, 1) - ... - K(m-2, n, r-1)

    for m >= 3, on top of the shared base cases. For m = 3 this collapses
    to r * D(1, n) = r (n - 1). Evaluated bottom-up as whole rows over r,
    with the subtracted sum kept as a running prefix sum, in O(m n)
    additions.
    """
    _validate(m, n, r)
    return _k_reduction_row(m, n)[r]


def _alternating_terms(m: int, n: int, r: int) -> Iterator[int]:
    """(-1)^s C(r, s) D(m-2s, n) for s = min(r, m // 2) down to 0, on running ints.

    The upward walk of the module docstring: one ``dim_D`` and one ``binom``
    at M = m - 2s, then one exact step per term. The last term is D(m, n).
    """
    s = min(r, m // 2)
    M = m - 2 * s
    d = dim_D(M, n)
    c = -binom(r, s) if s % 2 else binom(r, s)  # (-1)^s C(r, s)
    while True:
        yield c * d
        if s == 0:
            return
        d = d * (n + M - 1) * (n + M) // ((M + 1) * (M + 2))
        c = -c * s // (r - s + 1)
        M += 2
        s -= 1


def dim_K_closed(m: int, n: int, r: int) -> int:
    """Kernel dimension as the alternating sum over s >= 1 of (-1)^(s-1) C(r, s) D(m-2s, n).

    C(r, s) = 0 for s > r and the D conventions truncate the sum at
    s = min(r, floor(m/2)). The terms come from ``_alternating_terms``, an
    upward walk on ints that starts from one ``dim_D`` and one ``binom`` at
    the deepest term and takes each next term from the last by an exact
    division, never by zero; this is the negated sum of all of them but the
    last, the s = 0 term D(m, n).
    """
    _validate(m, n, r)
    *terms, _ = _alternating_terms(m, n, r)
    return -sum(terms)


def dim_I_sum(m: int, n: int, r: int) -> int:
    """Image dimension as the alternating sum over s >= 0 of (-1)^s C(r, s) D(m-2s, n).

    C(r, s) = 0 for s > r and the D conventions truncate the sum at
    s = min(r, floor(m/2)). This is the sum of every term of the upward
    walk ``_alternating_terms`` (one ``dim_D`` and one ``binom`` at the
    deepest term, then exact int steps). Its last term is D(m, n) as the
    walk reached it, so ``compute_record``'s test I_sum == D - K_closed
    also checks that value against ``dim_D``.
    """
    _validate(m, n, r)
    return sum(_alternating_terms(m, n, r))


def dim_I_hyp(m: int, n: int, r: int) -> Fraction:
    """Image dimension via the hypergeometric route, as an exact rational.

    Returns C(n+m-2, m) * 3F2(-r, -m/2, (1-m)/2; (2-n-m)/2, (3-n-m)/2; 1).
    Every parameter is half an int, so the series goes straight to the int
    kernel over L = 2, as (-2r, -m, 1-m; 2-n-m, 3-n-m) at x = 1/1, with no
    Fraction built for a parameter. The value is integral and equals
    ``dim_I_sum`` whenever the series is defined; it is returned
    unconverted so that an integrality failure would be observable rather
    than masked. Series errors propagate.
    """
    _validate(m, n, r)
    value, _ = _eval_scaled_3f2(-2 * r, -m, 1 - m, 2 - n - m, 3 - n - m, 2, 1, 1)
    # One reduced Fraction from ints, without int * Fraction's dispatch.
    return Fraction(dim_D(m, n) * value.numerator, value.denominator)


class ExtremeImageDims(NamedTuple):
    at_n: int
    at_n_minus_1: int


def dim_I_extremes(m: int, n: int) -> ExtremeImageDims:
    """Closed forms of the image dimension at full and almost-full resonance.

        I(m, n, n)   = C(n, m) - C(n, m-1)
        I(m, n, n-1) = C(n-1, m)

    The difference can be negative (it is for n < 2m); values are returned
    as computed and the validity question is left to the record flags.
    """
    _validate(m, n, 0)
    return ExtremeImageDims(
        at_n=binom(n, m) - binom(n, m - 1),
        at_n_minus_1=binom(n - 1, m),
    )


def dim_I_full_resonance_product(m: int, n: int) -> Fraction:
    """Parity-split product form of the image dimension at full resonance.

    For even m = 2j:  n (n-1) ... (n-2j+2) / (2j)!  *  (n + 1 - 4j)
    For odd  m = 2j+1: n (n-1) ... (n-2j+1) / (2j+1)! * (n - 4j - 1)

    Both parities are the one formula n (n-1) ... (n-m+2) / m! * (n+1-2m),
    a falling product of m-1 factors. Exact rational on the way through;
    equals ``dim_I_extremes(m, n).at_n``. Requires m >= 2 so that both
    parities have a nonempty product.
    """
    _validate(m, n, 0)
    if m < 2:
        raise DomainError(f"product form requires m >= 2, got {m}")
    return Fraction(math.perm(n, m - 1) * (n + 1 - 2 * m), math.factorial(m))


def compute_record(query: DimQuery) -> DimensionRecord:
    """Run every route for one query and report, never raise, on disagreement.

    A hypergeometric-route evaluation error (possible only at n = 1, where
    a lower series parameter can vanish too early) is recorded in
    ``hyp_error`` with ``I_hyp = None``; all integer routes are still filled
    in. Disagreement of any kind yields ``routes_agree = False``.
    """
    m, n = query.m, query.n
    return _record(query, dim_D(m, n), _k_recursion_row(m, n), _k_reduction_row(m, n))


def _record(query: DimQuery, d: int, rec_row: list[int], red_row: list[int]) -> DimensionRecord:
    """``compute_record`` given D(m, n) and both K rows K(m, n, 0..n) of the query's (m, n)."""
    m, n, r = query.m, query.n, query.r
    k_rec = rec_row[r]
    k_red = red_row[r]
    k_clo = dim_K_closed(m, n, r)
    i_sum = dim_I_sum(m, n, r)
    i_sub = d - k_clo
    i_hyp: Fraction | None
    hyp_error: str | None
    try:
        i_hyp = dim_I_hyp(m, n, r)
        hyp_error = None
    except HyperEvalError as exc:
        i_hyp = None
        hyp_error = str(exc)

    # An I_hyp of None equals no int, so a series error is a disagreement.
    routes_agree = k_rec == k_red == k_clo and i_hyp == i_sum == i_sub
    ks = (k_rec, k_red, k_clo)
    is_ = (i_sum, i_sub) if i_hyp is None else (i_sum, i_sub, i_hyp)
    in_validity = d >= 0 and min(ks) >= 0 and max(ks) <= d and min(is_) >= 0
    return DimensionRecord(
        query=query,
        D=d,
        K_recursion=k_rec,
        K_reduction=k_red,
        K_closed=k_clo,
        I_sum=i_sum,
        I_hyp=i_hyp,
        I_subtract=i_sub,
        hyp_error=hyp_error,
        routes_agree=routes_agree,
        in_validity_range=in_validity,
    )


def iter_table(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    r_policy: RPolicy = "all",
) -> Iterator[DimensionRecord]:
    """Lazily yield the records of ``table``, one at a time, in (m, n, r) order.

    The bounds and the policy are checked when this is called, before the
    first record is computed, so bad input raises DomainError before a
    caller writes anything. Records are computed as they are asked for and
    none is kept, so a caller that writes each one out runs in constant
    memory however large the ranges are. D and both K rows are built once
    per (m, n), when its first record is asked for, and serve all its r;
    each record equals ``compute_record`` of its query.
    """
    m_lo, m_hi = m_range
    n_lo, n_hi = n_range
    _validate(m_lo, n_lo, 0)
    _validate(m_hi, n_hi, 0)
    if m_hi < m_lo or n_hi < n_lo:
        raise DomainError(
            f"empty range: m {m_lo}..{m_hi}, n {n_lo}..{n_hi} (bounds are inclusive)"
        )
    if r_policy not in R_POLICIES:
        raise DomainError(f"unknown r policy {r_policy!r}; expected one of {R_POLICIES}")
    r_values = _R_VALUES[r_policy]

    def records() -> Iterator[DimensionRecord]:
        for m in range(m_lo, m_hi + 1):
            for n in range(n_lo, n_hi + 1):
                d, rec_row, red_row = dim_D(m, n), _k_recursion_row(m, n), _k_reduction_row(m, n)
                for r in r_values(n):
                    yield _record(DimQuery(m, n, r), d, rec_row, red_row)

    return records()


def table(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    r_policy: RPolicy = "all",
) -> list[DimensionRecord]:
    """Records for every (m, n, r) in the given inclusive ranges, in (m, n, r) order.

    ``r_policy`` selects all 0 <= r <= n, only r = n, or only r = n - 1.
    Raises DomainError on empty or out-of-range bounds. This is
    ``iter_table`` collected into a list.
    """
    return list(iter_table(m_range, n_range, r_policy))
