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

The recursion and reduction routes are evaluated bottom-up, as triangles.
K(m, n, r) reads only K(m-2j, n, 0..r-j), and every row below level m - 2r
is the zero row K(·, n, 0) = 0. So each builder starts at level
m - 2 min((m-1)//2, r), on the row [0] or on the base row of m's parity cut
to width, and each step m' -> m' + 2 widens the row by one entry until it
is K(m, n, 0..r). A query costs min((m-1)//2, r) steps of width <= r+1, at
constant stack depth, however large m is. No route keeps a cache:
``compute_record`` builds both rows for its one query, and a table builds
the rows K(m, n, 0..R), the triangles at its largest r of the (m, n),
R, once per (m, n) and reads every r of its loop from them; ``dim_D`` is
one binomial.
The two routes keep their own formulas and share no intermediate values,
so they stay independent witnesses.

Both alternating sums read one signed column, ``_d_column``:
(-1)^s D(m-2s, n) for s = 0..S. It is built by one upward walk that
computes one ``dim_D`` at the deepest term, M = m - 2S, and takes each
next term from the last:

    D(M+2, n) = D(M, n) (n+M-1)(n+M) / ((M+1)(M+2))

The division is exact, D(M, n) (n+M-1)(n+M) = D(M+2, n) (M+1)(M+2), so
the walk stays on ints. It walks upward, from small M to m, because the
downward step would divide by (n+M-1)(n+M), which is 0 at n = 1, M = 0.
The column that serves every r up to R has depth S = min(R, m // 2); at
each such r, ``_column_sums`` takes I_sum = sum of C(r, s) col[s] over
s <= r, a single sum in C, and K_closed = col[0] - I_sum, the negated
sum over s >= 1 (C(r, s) = 0 for s > r truncates both). The row routes call
``dim_D`` themselves and share nothing with the column, so they stay
independent witnesses; the column's first term, D(m, n) as the walk
reached it, is checked against ``dim_D`` through I_sum == D - K_closed.

The records of one (m, n) are computed together, by ``_block_rows``, each
as a flat tuple of values: m, n, r, then the fields of ``DimensionRecord``
after its query, in their order, but with an integral I_hyp kept as the
int. D, both K rows and the column are built once per block, sized to its
largest r, and each r then costs one column sum, one 3F2 series and the
checks. ``_iter_rows`` yields a table's rows lazily, one at a time, so a
caller that writes each one out runs in constant memory; the CLI's table
writers take these rows and build no object per record. The record
objects are built only for a caller of the public API: ``compute_record``
builds one from its query and the one row of its block, ``iter_table``
builds a ``DimQuery``, which validates again, and a ``DimensionRecord``
from each row of ``_iter_rows``, and ``table`` is that iterator collected
into a list. Both put an int I_hyp back into a ``Fraction``.

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
from operator import mul
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
    range test. A record runs it once, in ``DimQuery``, the CLI's ``dims``
    once before its one row, and a row of ``_iter_rows`` not at all, as the
    table's bounds were checked: the row path calls only private builders,
    which trust their arguments.
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
    by themselves. m and n must be exact ints, as for every route, and n >= 1
    once m >= 1; the row builders call this once per step, so the test is
    one type comparison and one range test.
    """
    if not type(m) is type(n) is int or (m >= 1 and n < 1):
        _validate(m, n, 0)  # raises: the type error first, else the n >= 1 one
    if m < 0:
        return 0
    if m == 0:
        return 1
    return binom(n + m - 2, m)


# The three K routes share the same base cases: K(m, n, 0) = 0, K(1, n, r) = 0,
# and K(2, n, r) = r. The last is imported as an axiom (rank one kernel per
# resonant double point when m = 2), not re-derived here.


def _k_start(m: int, r: int) -> tuple[int, list[int]]:
    """Where the triangle for K(m, ·, 0..r) starts: its level and row there.

    It takes s = min((m-1)//2, r) steps, so it starts at level m - 2s with
    the row K(m-2s, ·, 0..r-s). If s = r that row is K(·, ·, 0) = [0];
    otherwise m - 2s is m's base, 1 or 2, and the row is the base row
    K(1, ·, t) = 0 or K(2, ·, t) = t cut to width r-s+1. Both base rows
    are [0] at width 1, so one expression serves either case.
    """
    steps = min((m - 1) // 2, r)
    width = r - steps + 1
    return m - 2 * steps, list(range(width)) if m % 2 == 0 else [0] * width


def _k_recursion_row(m: int, n: int, r: int) -> list[int]:
    """K(m, n, 0..r) by the recursion of ``dim_K_recursion``, as a triangle.

    Each step m' -> m' + 2 reads the whole old row and writes a row one
    entry wider, so the row reaches width r+1 at level m.
    """
    low, row = _k_start(m, r)
    for level in range(low + 2, m + 1, 2):
        d = dim_D(level - 2, n)
        # new[t] = D(m'-2, n) + new[t-1] - old[t-1], from new[0] = 0.
        row = list(itertools.accumulate((d - old for old in row), initial=0))
    return row


def dim_K_recursion(m: int, n: int, r: int) -> int:
    """Kernel dimension via the peel-one-resonant-point recursion.

        K(m, n, r) = D(m-2, n) + K(m, n, r-1) - K(m-2, n, r-1)

    for m >= 3, on top of the shared base cases. K(m, n, r) reads only
    K(m-2j, n, 0..r-j), and K(·, n, 0) = 0, so it is evaluated bottom-up as
    a triangle: min((m-1)//2, r) steps, each one row of width <= r+1, at
    constant stack depth.
    """
    _validate(m, n, r)
    return _k_recursion_row(m, n, r)[r]


def _k_reduction_row(m: int, n: int, r: int) -> list[int]:
    """K(m, n, 0..r) by the reduction of ``dim_K_reduction``, as a triangle."""
    low, row = _k_start(m, r)
    for level in range(low + 2, m + 1, 2):
        d = dim_D(level - 2, n)
        # new[t] = t D(m'-2, n) - (old[1] + ... + old[t-1]); old[0] = 0, so
        # the running prefix sum of old[0..t-1] is the subtrahend.
        prefix = itertools.accumulate(row, initial=0)
        row = [t * d - acc for t, acc in enumerate(prefix)]
    return row


def dim_K_reduction(m: int, n: int, r: int) -> int:
    """Kernel dimension via the drop-two-variables reduction.

        K(m, n, r) = r D(m-2, n) - K(m-2, n, 1) - ... - K(m-2, n, r-1)

    for m >= 3, on top of the shared base cases. For m = 3 this collapses
    to r * D(1, n) = r (n - 1). Evaluated bottom-up as a triangle, like
    ``dim_K_recursion``, with the subtracted sum kept as a running prefix
    sum: min((m-1)//2, r) steps of width <= r+1.
    """
    _validate(m, n, r)
    return _k_reduction_row(m, n, r)[r]


def _d_column(m: int, n: int, depth: int) -> list[int]:
    """The signed column (-1)^s D(m-2s, n) for s = 0..depth, with depth <= m // 2.

    The upward walk of the module docstring: one ``dim_D`` at M = m - 2 depth,
    then one exact step per term up to s = 0, whose term is the walk's own
    D(m, n). The sign flips at each step, and a floor division of an exact
    quotient is exact for either sign.
    """
    M = m - 2 * depth
    d = -dim_D(M, n) if depth % 2 else dim_D(M, n)
    col = [d]
    while M < m:
        d = -d * (n + M - 1) * (n + M) // ((M + 1) * (M + 2))
        M += 2
        col.append(d)
    col.reverse()
    return col


def _column_sums(col: list[int], r: int) -> tuple[int, int]:
    """(K_closed, I_sum) at r from the ``_d_column`` of (m, n), of depth >= min(r, m // 2).

    I_sum is the sum of C(r, s) col[s] over s <= r, as far as the column
    goes, and K_closed = col[0] - I_sum is minus its terms for s >= 1.
    """
    total = sum(map(mul, map(math.comb, itertools.repeat(r), range(r + 1)), col))
    return col[0] - total, total


def dim_K_closed(m: int, n: int, r: int) -> int:
    """Kernel dimension as the alternating sum over s >= 1 of (-1)^(s-1) C(r, s) D(m-2s, n).

    C(r, s) = 0 for s > r and the D conventions truncate the sum at
    s = min(r, floor(m/2)). The terms (-1)^s D(m-2s, n) come from
    ``_d_column``, an upward walk on ints that starts from one ``dim_D`` at
    the deepest term and takes each next term from the last by an exact
    division, never by zero; this is the negated sum of all of them but the
    s = 0 term D(m, n), each times C(r, s).
    """
    _validate(m, n, r)
    return _column_sums(_d_column(m, n, min(r, m // 2)), r)[0]


def dim_I_sum(m: int, n: int, r: int) -> int:
    """Image dimension as the alternating sum over s >= 0 of (-1)^s C(r, s) D(m-2s, n).

    C(r, s) = 0 for s > r and the D conventions truncate the sum at
    s = min(r, floor(m/2)). This is the sum over every term of the column
    ``_d_column`` (one ``dim_D`` at the deepest term, then exact int steps),
    each times C(r, s). Its first term is D(m, n) as the walk reached it,
    so a record's test I_sum == D - K_closed also checks that value against
    ``dim_D``.
    """
    _validate(m, n, r)
    return _column_sums(_d_column(m, n, min(r, m // 2)), r)[1]


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
    num, den = _i_hyp_pair(m, n, r)
    return Fraction(dim_D(m, n) * num, den)


def _i_hyp_pair(m: int, n: int, r: int) -> tuple[int, int]:
    """The 3F2 of ``dim_I_hyp`` as the kernel's unreduced (num, den), den != 0 of either sign."""
    return _eval_scaled_3f2(-2 * r, -m, 1 - m, 2 - n - m, 3 - n - m, 2, 1, 1)[:2]


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
    in. Disagreement of any kind yields ``routes_agree = False``. The values
    are those of the one row of the block ``_block_rows(m, n, (r,))``, so D,
    the K rows and the column are sized to this r, and are checked on ints
    as it describes; ``I_hyp`` is still the exact ``Fraction`` that
    ``dim_I_hyp`` returns, the row's int put back into one. This and
    ``iter_table`` build the record objects, for callers of the API; of
    the CLI's commands only ``classify`` reads this record's row, while
    ``dims`` renders the row of ``_block_rows`` itself and ``table`` builds
    no record.
    """
    return _record(query, next(_block_rows(query.m, query.n, (query.r,))))


# A record as a flat tuple: m, n, r, then the fields of DimensionRecord after
# its query, in their order, with an integral I_hyp kept as the int.
_Row = tuple[
    int, int, int, int, int, int, int, int, int | Fraction | None, int, str | None, bool, bool
]


def _record(query: DimQuery, row: _Row) -> DimensionRecord:
    """The record of ``query`` from its row, with an int I_hyp put back into a Fraction."""
    i_hyp = row[8]
    return DimensionRecord(
        query, *row[3:8], Fraction(i_hyp) if type(i_hyp) is int else i_hyp, *row[9:]
    )


def _block_rows(m: int, n: int, rs: Sequence[int]) -> Iterator[_Row]:
    """The rows of (m, n, r) for each r of ``rs``, which ascend, as ``_Row`` tuples.

    D, both K rows K(m, n, 0..R) and the column of depth min(R, m // 2) are
    built once, for the largest r, R = rs[-1], when the first row is asked
    for. Then each r reads its K values from the rows, its K_closed and
    I_sum from one ``_column_sums``, and its I_hyp from one 3F2 series.

    I_hyp = d num / den, from the kernel's pair, is checked on ints. With
    q, rem = divmod(d num, den) it is integral iff rem == 0, and then it is
    q, so the routes agree iff rem == 0 and q == I_sum == I_subtract.
    Python's q is the floor of the exact quotient for either sign of den,
    and floor(x) >= 0 iff x >= 0, so q >= 0 is the bound I_hyp >= 0. The
    row keeps an integral I_hyp as the int q, with no Fraction built, and
    any other as Fraction(d num, den).
    """
    top = rs[-1]
    d = dim_D(m, n)
    rec_row, red_row = _k_recursion_row(m, n, top), _k_reduction_row(m, n, top)
    col = _d_column(m, n, min(top, m // 2))
    for r in rs:
        k_rec = rec_row[r]
        k_red = red_row[r]
        k_clo, i_sum = _column_sums(col, r)
        i_sub = d - k_clo
        try:
            num, den = _i_hyp_pair(m, n, r)
        except HyperEvalError as exc:
            # No I_hyp: rem = 1 makes it agree with no route, and q = I_sum
            # adds no bound that I_sum does not already meet.
            i_hyp, hyp_error, q, rem = None, str(exc), i_sum, 1
        else:
            hyp_error = None
            q, rem = divmod(d * num, den)
            i_hyp = Fraction(d * num, den) if rem else q
        agree = k_rec == k_red == k_clo and rem == 0 and q == i_sum == i_sub
        # Each K in 0..D (so D >= 0) and each I >= 0.
        valid = (
            0 <= k_rec <= d and 0 <= k_red <= d and 0 <= k_clo <= d
            and i_sum >= 0 and i_sub >= 0 and q >= 0
        )
        yield m, n, r, d, k_rec, k_red, k_clo, i_sum, i_hyp, i_sub, hyp_error, agree, valid


def _iter_rows(
    m_range: tuple[int, int], n_range: tuple[int, int], r_policy: RPolicy = "all"
) -> Iterator[_Row]:
    """Lazily yield the rows of ``table``, one at a time, in (m, n, r) order.

    The bounds and the policy are checked when this is called, before the
    first row is computed, so bad input raises DomainError before a caller
    writes anything. Rows are computed as they are asked for and none is
    kept, so a caller that writes each one out runs in constant memory
    however large the ranges are. Each (m, n) is one ``_block_rows`` over
    the policy's r values, so D, both K rows and the D column are built
    once per (m, n), for its largest r, when its first row is asked for,
    and serve all its r. Each point is in the domain the bounds checked, so
    no row builds or validates a ``DimQuery``; the CLI's table writers take
    these rows, whose integral I_hyp is an int.
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

    def rows() -> Iterator[_Row]:
        for m in range(m_lo, m_hi + 1):
            for n in range(n_lo, n_hi + 1):
                yield from _block_rows(m, n, r_values(n))

    return rows()


def iter_table(
    m_range: tuple[int, int], n_range: tuple[int, int], r_policy: RPolicy = "all"
) -> Iterator[DimensionRecord]:
    """Lazily yield the records of ``table``, one at a time, in (m, n, r) order.

    Each record is built from a row of ``_iter_rows``, with its own
    ``DimQuery``, which validates its point again, and an int I_hyp put
    back into a ``Fraction``. So the bounds and the policy are checked when
    this is called, records are computed as they are asked for and none is
    kept, and D, both K rows and the D column are built once per (m, n).
    Each record equals ``compute_record`` of its query. The CLI's table
    writers take the rows themselves and build no record.
    """
    rows = _iter_rows(m_range, n_range, r_policy)
    return (_record(DimQuery(*row[:3]), row) for row in rows)


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
