"""Dimension counts for the invariant twisted homology of a Selberg-type integrand.

For m integration variables, n marked points and r resonant exponents:

* ``D(m, n) = C(n+m-2, m)`` is the dimension of the invariant locally finite
  twisted homology;
* ``K`` is the dimension of the kernel of the regularization map from
  compact to locally finite homology;
* ``I`` is the dimension of its image, the regularizable cycles: D = K + I.

The domain is m >= 1, n >= 1 and 0 <= r <= n, each an exact int.
``_validate`` holds its rules and messages; outside it every public route
raises DomainError. K and I each come from several independent routes, and
a record states whether they agree rather than assuming it:

* ``dim_K_recursion`` peels off one resonant point at a time, and
  ``dim_K_reduction`` drops two integration variables at a time. K(m, n, r)
  reads only K(m-2j, n, 0..r-j), so both run bottom-up as triangles:
  min((m-1)//2, r) steps of width <= r+1, at constant stack depth. The step
  to level m' consumes D(m'-2, n), and ``_d_levels`` computes each by ``dim_D``.
* ``dim_K_closed`` and ``dim_I_sum`` split one alternating sum over the
  signed column (-1)^s D(m-2s, n), ``_d_column``.
* ``dim_I_hyp`` is that sum as D(m, n) times a terminating 3F2 whose
  parameters are halves of ints, summed by the int series kernel over 2.
* I_subtract is D - K_closed.

``_d_column`` computes one ``dim_D`` at the deepest term M and walks upward
by the exact int step D(M+2, n) (M+1)(M+2) = D(M, n) (n+M-1)(n+M). Downward
it would divide by (n+M-1)(n+M), which is 0 at n = 1, M = 0. The column must
not feed the triangles: the K identities hold for any sequence of D values,
so rows built from the walk would agree with K_closed even where the walk
went wrong. Built from ``dim_D``, they make K_closed == K_recursion a check
of every term of the walk, and I_sum == D - K_closed checks its first.

``_block_rows`` computes the records of one (m, n) together, as rows laid
out by ``_ROW_FIELDS``. D, the D levels, both K rows and the column are
built once, at the largest r, and each r then costs one column sum and one
3F2 series. The CLI renders these rows; ``compute_record`` and
``iter_table`` build the public records from them. No route keeps a cache.
The closed forms at r = n and r = n - 1 are exposed for cross-checks.

Conventions: the alternating sums use D(0, n) = 1 and D(m, n) = 0 for m < 0,
the unique choice under which they reproduce the base cases K(2, n, r) = r
and the closed forms at extreme resonance. The recursion never consumes
D(0, n), as m = 2 is a base case, so the routes cannot disagree over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul, sub
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

    ``DimQuery``, every public route and the CLI's ``dims`` call this, so
    each rule and message lives here. The ``type(v) is int`` test rejects
    bool and costs no more than a range test. The private row builders trust
    their arguments: ``_iter_rows`` checks a table's bounds once instead.
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
    is being verified), and an int given for it is stored as its Fraction;
    it is None exactly when ``hyp_error`` is set, which can only happen
    outside the n >= 2 regime. ``routes_agree`` requires all three K routes
    and all three I routes to coincide. ``in_validity_range`` is the sanity
    check that every computed dimension is a plausible one: nonnegative and
    K <= D.
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

    def __post_init__(self) -> None:
        # A row keeps an integral I_hyp as the int; the record holds its Fraction.
        if type(self.I_hyp) is int:
            object.__setattr__(self, "I_hyp", Fraction(self.I_hyp))

    @property
    def K(self) -> int | None:
        """The agreed kernel dimension, or None if the routes disagree."""
        return self.K_closed if self.routes_agree else None

    @property
    def I(self) -> int | None:
        """The agreed image dimension, or None if the routes disagree."""
        return self.I_sum if self.routes_agree else None


# A record as a flat tuple, the row every record renderer takes: the fields of
# its query, then its own after the query, with an integral I_hyp kept as the
# int. Every row position and column list derives from these names.
_ROW_FIELDS = tuple(f.name for f in fields(DimQuery) + fields(DimensionRecord)[1:])
_QUERY = len(fields(DimQuery))
_AGREE = _ROW_FIELDS.index("routes_agree")


def dim_D(m: int, n: int) -> int:
    """Total invariant dimension C(n+m-2, m), with D(0, n) = 1 and D(m<0, n) = 0.

    The out-of-range conventions make the alternating sums over s truncate
    by themselves. m and n must be exact ints, as for every route, and n >= 1
    once m >= 1; ``_d_levels`` calls this once per triangle level, so the
    test is one type comparison and one range test.
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


def _k_start(m: int, r: int) -> list[int]:
    """The row the triangle for K(m, ·, 0..r) starts from, before its first step.

    It takes s = min((m-1)//2, r) steps, so it starts at level m - 2s with
    the row K(m-2s, ·, 0..r-s). If s = r that row is K(·, ·, 0) = [0];
    otherwise m - 2s is m's base, 1 or 2, and the row is the base row
    K(1, ·, t) = 0 or K(2, ·, t) = t cut to width r-s+1. Both base rows
    are [0] at width 1, so one expression serves either case. The row
    does not depend on n.
    """
    width = r - min((m - 1) // 2, r) + 1
    return list(range(width)) if m % 2 == 0 else [0] * width


def _d_levels(m: int, n: int, r: int) -> list[int]:
    """D(m'-2, n) for each level m' that the triangles for K(m, n, 0..r) step to, upward.

    The triangles take s = min((m-1)//2, r) steps, to m' = m - 2s + 2, ..., m,
    and the step to m' consumes D(m'-2, n): one ``dim_D`` per level. Both
    builders read this one list, so a block computes each level's D once.
    """
    steps = min((m - 1) // 2, r)
    return [dim_D(level, n) for level in range(m - 2 * steps, m - 1, 2)]


def _k_recursion_row(m: int, r: int, ds: list[int]) -> list[int]:
    """K(m, n, 0..r) by the recursion of ``dim_K_recursion``, as a triangle.

    ``ds`` is ``_d_levels(m, n, r)``, and each of its values is one step
    m' -> m' + 2, which reads the whole old row and writes a row one entry
    wider, so the row reaches width r+1 at level m.
    """
    row = _k_start(m, r)
    for d in ds:
        # new[t] = D(m'-2, n) + new[t-1] - old[t-1], from new[0] = 0.
        row = list(accumulate(map(sub, repeat(d, len(row)), row), initial=0))
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
    return _k_recursion_row(m, r, _d_levels(m, n, r))[r]


def _k_reduction_row(m: int, r: int, ds: list[int]) -> list[int]:
    """K(m, n, 0..r) by the reduction of ``dim_K_reduction``, as a triangle.

    It steps through the same ``_d_levels(m, n, r)`` as ``_k_recursion_row``.
    """
    row = _k_start(m, r)
    for d in ds:
        # new[t] = t D(m'-2, n) - (old[1] + ... + old[t-1]); old[0] = 0, so
        # the running prefix sum of old[0..t-1] is the subtrahend.
        row = [t * d - acc for t, acc in enumerate(accumulate(row, initial=0))]
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
    return _k_reduction_row(m, r, _d_levels(m, n, r))[r]


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
    total = sum(map(mul, map(math.comb, repeat(r), range(r + 1)), col))
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
    are those of the one row of ``_block_rows(m, n, (r,))``.
    """
    return DimensionRecord(query, *next(_block_rows(query.m, query.n, (query.r,)))[_QUERY:])


def _block_rows(m: int, n: int, rs: Sequence[int]) -> Iterator[tuple]:
    """The rows of (m, n, r) for each r of ``rs``, which ascend, laid out as ``_ROW_FIELDS``.

    D, the triangles' D levels, both K rows K(m, n, 0..R) and the column of
    depth min(R, m // 2) are built once, for the largest r, R = rs[-1], when
    the first row is asked for. Then each r reads its K values from the
    rows, its K_closed and I_sum from one ``_column_sums``, and its I_hyp
    from one 3F2 series.

    I_hyp = d num / den, from the kernel's pair, is checked on ints. With
    q, rem = divmod(d num, den) it is integral iff rem == 0, and then it is
    q, so the routes agree iff rem == 0 and q == I_sum == I_subtract.
    Python's q is the floor of the exact quotient for either sign of den,
    and floor(x) >= 0 iff x >= 0, so q >= 0 is the bound I_hyp >= 0. The
    row keeps an integral I_hyp as the int q and any other as
    Fraction(d num, den).
    """
    top = rs[-1]
    d = dim_D(m, n)
    ds = _d_levels(m, n, top)
    rec_row, red_row = _k_recursion_row(m, top, ds), _k_reduction_row(m, top, ds)
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
) -> Iterator[tuple]:
    """Lazily yield the rows of ``table``, one at a time, in (m, n, r) order.

    The bounds and the policy are checked when this is called, before the
    first row is computed, so bad input raises DomainError before a caller
    writes anything. Rows are computed as they are asked for and none is
    kept, so a caller that writes each one out runs in constant memory
    however large the ranges are. Each (m, n) is one ``_block_rows`` over
    the policy's r values, which builds D, both K rows and the D column
    once, at the largest of them.
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

    def rows() -> Iterator[tuple]:
        for m in range(m_lo, m_hi + 1):
            for n in range(n_lo, n_hi + 1):
                yield from _block_rows(m, n, r_values(n))

    return rows()


def iter_table(
    m_range: tuple[int, int], n_range: tuple[int, int], r_policy: RPolicy = "all"
) -> Iterator[DimensionRecord]:
    """Lazily yield the records of ``table``, one at a time, in (m, n, r) order.

    Each record is built from a row of ``_iter_rows``, so the bounds and
    the policy are checked when this is called, records are computed as they
    are asked for and none is kept. Each record equals ``compute_record`` of
    its query.
    """
    rows = _iter_rows(m_range, n_range, r_policy)
    return (DimensionRecord(DimQuery(*row[:_QUERY]), *row[_QUERY:]) for row in rows)


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
