"""Dimension counts for the invariant twisted homology of a Selberg-type integrand.

For m integration variables, n marked points and r resonant exponents:

* ``D(m, n) = C(n+m-2, m)`` is the dimension of the invariant locally finite
  twisted homology;
* ``K`` is the dimension of the kernel of the regularization map from
  compact to locally finite homology;
* ``I`` is the dimension of its image, the regularizable cycles: D = K + I.

The domain is m >= 1, n >= 1 and 0 <= r <= n, each an exact int, as
``_validate`` states; outside it every public route raises DomainError.
K comes by recursion, by reduction and in closed form, I as an alternating
sum, as D times a 3F2 and as I_subtract = D - K_closed; a record states
whether they agree rather than assuming it. No route keeps a cache.

The K triangles. ``dim_K_recursion`` peels off one resonant point at a
time and ``dim_K_reduction`` drops two integration variables at a time, so
K(m, n, r) reads only K(m-2j, n, 0..r-j) and both run bottom-up: each step
to level m' reads the whole row of level m' - 2, consumes D(m'-2, n) and
writes a row one entry wider. Each route has one step function,
``_k_recursion_steps`` and ``_k_reduction_steps``. From the row of
``_k_start`` a query takes min((m-1)//2, r) steps of width <= r+1 to level
m, at constant stack depth. ``_d_levels`` lists the D each step consumes,
once for both triangles and the D column. A table walks the same ladder
once: each n and parity of m is a chain, whose first block builds its
triangles from the base at width R + 1, for the top r value R, and whose
every later block steps the two rows of the block two below it once each,
at the same width, with that block's D (``_iter_blocks``). This is the
bottom-up build itself, carried from block to block, not a memo: each chain
holds one row per route and its last R D levels, and each block replaces
them. The routes share only the D levels, as in a triangle.

The D column. ``dim_K_closed`` and ``dim_I_sum`` split one alternating sum
over the signed column (-1)^s D(m-2s, n) of ``_d_column``: D(m, n), the
triangles' ``_d_levels`` read downward, and D(0, n) at even m with
r >= m/2, so a block reads each D(m-2s, n) from ``dim_D`` once. The K
identities hold for any sequence of D values, so K_closed == K_recursion
== K_reduction checks the code of the three K formulas, not the D values;
the 3F2 checks those, as it derives its terms from D(m, n) alone. A
block that asks for r = 0, 1, ..., R sweeps this column c across r instead
of summing sum_s C(r, s) c[s] at each r: row r reads I_sum, with K_closed =
c[0] - I_sum. ``_sweep`` is the sweep, in Newton's forward-difference form:
the s-th forward difference in r of I_sum at r = 0 is c[s], so with
P_depth(r) = c[depth] for every r, the last entry, and P_s(r) = c[s] +
P_(s+1)(0) + ... + P_(s+1)(r-1), P_0 is I_sum at r = 0..R. Each P_s is one
C-level ``accumulate`` pass over the first R entries of P_(s+1), so a term
costs one addition where the sum at one r costs a binomial and a product.
The block's 3F2 is a column too, ``_hyp_column``, built from the block's
D(m, n) alone, not from this column or ``dim_D``, so I_hyp stays a route
of its own. Yet both Pochhammer pairs of the 3F2 collapse:
(-m/2)_k ((1-m)/2)_k = (-m)_(2k) / 4^k = m! / ((m-2k)! 4^k), and
((2-n-m)/2)_k ((3-n-m)/2)_k = (n+m-2)! / ((n+m-2-2k)! 4^k) before a pole,
so D(m, n) times term k is (-1)^k C(r, k) D(m-2k, n): each entry is an int,
and the 3F2 column equals this one. The sweep is linear and, over r = 0..R,
one-to-one on columns of at most R + 1 entries (binomial inversion), so
I_hyp == I_sum at every r exactly when the two columns are equal. A
block's verdict is that comparison and one more: K_recursion's row ==
K_reduction's row == the K_closed row. As c[0] is d itself, I_subtract =
d - K_closed == I_sum holds by construction. When both hold, every row
agrees, I_subtract == I_hyp == I_sum, and the validity test reduces to
K_closed >= 0 and I_sum >= 0 (K_closed <= d is I_subtract >= 0), so the
block is zipped: it is kept as its columns, its rows are a ``zip`` of them,
and the table writers of ``cli`` render it from the columns. Any other
block, by a pole ((2, 1) in the domain), a wrong column or a wrong sweep,
is built as single queries, as a block of one r is: from ``_column_sums``
and ``_i_hyp`` at each r. No swept value reaches a row or a writer but
through the columns of a zipped block, and each wrong row shows its own
values.

Degrees. At a fixed m every route is a polynomial in (n, r) on n >= 2,
r >= 0. D(m', n) = C(n+m'-2, m') has degree m' in n, so I_sum, the sum over
s <= m/2 of (-1)^s C(r, s) D(m-2s, n), has degree <= m in n and <= m // 2
in r, as has K_closed = D - I_sum. From K(1, n, r) = 0 and K(2, n, r) = r,
by induction on m, the recursion's step in r, D(m-2, n) - K(m-2, n, r-1),
and the reduction's r D(m-2, n) minus a sum of K(m-2, n, t) over t < r each
give K degree <= m - 2 in n and <= m // 2 in r. D times term k of the 3F2
is the s = k term of I_sum. So two routes that agree on n0..n0+m by
0..m//2, n0 = max(2, m // 2), agree at every n >= 2 and 0 <= r <= n of that
m; ``tests/test_route_degrees.py`` checks those grids for m <= 60 and the
degree bounds on the code's values. Its grids are swept blocks, and
``tests/test_dims.py`` holds the single queries to them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat, takewhile
from operator import and_, le, mul, sub

from .exactnum import _Frozen, binom
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

RPolicy = str  # one of R_POLICIES
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

    ``DimQuery``, every public route and ``cli._row`` call this, so
    each rule and message lives here. The ``type(v) is int`` test rejects
    bool and costs no more than a range test. The private row builders trust
    their arguments: ``_iter_blocks`` checks a table's bounds once instead.
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


class DimQuery(_Frozen):
    """A dimension query: m >= 1 variables, n >= 1 points, 0 <= r <= n resonant (``_validate``)."""

    m: int
    n: int
    r: int

    def __post_init__(self) -> None:
        _validate(self.m, self.n, self.r)


class DimensionRecord(_Frozen):
    """Every route's answer for one query, plus the agreement verdicts.

    ``I_hyp`` is an exact rational, as its integrality is part of what is
    verified (an int given for it is stored as its Fraction); it is None
    exactly when ``hyp_error`` is set. ``routes_agree`` requires all three K
    routes and all three I routes to coincide; ``in_validity_range``, that
    every dimension is nonnegative and each K <= D.
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
_ROW_FIELDS = DimQuery._fields + DimensionRecord._fields[1:]
_QUERY = len(DimQuery._fields)
_AGREE = _ROW_FIELDS.index("routes_agree")


def dim_D(m: int, n: int) -> int:
    """Total invariant dimension C(n+m-2, m), with D(0, n) = 1 and D(m<0, n) = 0.

    Those two values truncate the alternating sums over s by themselves,
    and are the one choice under which the sums give K(2, n, r) = r and the
    closed forms at extreme resonance; the recursion never consumes D(0, n).
    m and n must be exact ints, and n >= 1 once m >= 1: one type comparison
    and one range test, as this runs once per triangle level.
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


def _k_start(m: int, width: int) -> list[int]:
    """The row, of the given width, that the K triangles for m start from.

    A triangle of s steps starts at level m - 2s, width r + 1 - s: m's base
    row K(1, ·, t) = 0 or K(2, ·, t) = t, or, when s = r, K(·, ·, 0) = [0],
    which both base rows are at width 1. The row does not depend on n.
    """
    return list(range(width)) if m % 2 == 0 else [0] * width


def _d_levels(m: int, n: int, r: int) -> list[int]:
    """D(m'-2, n) for each level m' that the K triangles for (m, n, r) step to, upward."""
    steps = min((m - 1) // 2, r)
    return [dim_D(level, n) for level in range(m - 2 * steps, m - 1, 2)]


def _k_recursion_steps(row: list[int], ds: Sequence[int]) -> list[int]:
    """``row`` after one step of the recursion per d in ``ds``, upward.

    A step takes K(m'-2, n, 0..w-1) and d = D(m'-2, n) to K(m', n, 0..w);
    entry t reads the entries of the old row below t.
    """
    for d in ds:
        # new[t] = D(m'-2, n) + new[t-1] - old[t-1], from new[0] = 0.
        row = list(accumulate(map(sub, repeat(d, len(row)), row), initial=0))
    return row


def _k_recursion_row(m: int, r: int, ds: list[int]) -> list[int]:
    """K(m, n, 0..r) by the recursion of ``dim_K_recursion``, over ``ds = _d_levels(m, n, r)``."""
    return _k_recursion_steps(_k_start(m, r + 1 - len(ds)), ds)


def dim_K_recursion(m: int, n: int, r: int) -> int:
    """Kernel dimension via the peel-one-resonant-point recursion.

        K(m, n, r) = D(m-2, n) + K(m, n, r-1) - K(m-2, n, r-1)

    for m >= 3, on top of the shared base cases, evaluated as a K triangle.
    """
    _validate(m, n, r)
    return _k_recursion_row(m, r, _d_levels(m, n, r))[r]


def _k_reduction_steps(row: list[int], ds: Sequence[int]) -> list[int]:
    """``row`` after one step of the reduction per d in ``ds``, as ``_k_recursion_steps``."""
    for d in ds:
        # new[t] = t D(m'-2, n) - (old[1] + ... + old[t-1]); old[0] = 0, so
        # the running prefix sum of old[0..t-1] is the subtrahend.
        row = [t * d - acc for t, acc in enumerate(accumulate(row, initial=0))]
    return row


def _k_reduction_row(m: int, r: int, ds: list[int]) -> list[int]:
    """K(m, n, 0..r) by the reduction of ``dim_K_reduction``, over ``ds = _d_levels(m, n, r)``."""
    return _k_reduction_steps(_k_start(m, r + 1 - len(ds)), ds)


def dim_K_reduction(m: int, n: int, r: int) -> int:
    """Kernel dimension via the drop-two-variables reduction.

        K(m, n, r) = r D(m-2, n) - K(m-2, n, 1) - ... - K(m-2, n, r-1)

    for m >= 3, on top of the shared base cases. For m = 3 this collapses
    to r * D(1, n) = r (n - 1). Evaluated as a K triangle.
    """
    _validate(m, n, r)
    return _k_reduction_row(m, r, _d_levels(m, n, r))[r]


def _d_column(m: int, n: int, r: int, d: int, ds: list[int]) -> list[int]:
    """The signed column (-1)^s D(m-2s, n) for s = 0..depth, the lesser of r and m // 2.

    Past that depth C(r, s) or D(m-2s, n) is 0, so the column holds every
    nonzero term of the sums at r and at any smaller r. It is d = D(m, n),
    then ``ds = _d_levels(m, n, r)`` read downward, then D(0, n) where the
    column is one term deeper than the triangles: at even m with r >= m/2.
    """
    col = [d, *reversed(ds)]
    if len(ds) < min(r, m // 2):
        col.append(dim_D(0, n))
    col[1::2] = [-c for c in col[1::2]]
    return col


def _column_sums(col: list[int], r: int) -> tuple[int, int]:
    """(K_closed, I_sum) at r from the ``_d_column`` of (m, n, R), for any R >= r.

    I_sum is the sum of C(r, s) col[s] over s <= r, as far as the column
    goes, and K_closed = col[0] - I_sum is minus its terms for s >= 1.
    """
    total = sum(map(mul, map(math.comb, repeat(r), range(r + 1)), col))
    return col[0] - total, total


def dim_K_closed(m: int, n: int, r: int) -> int:
    """Kernel dimension as the alternating sum over s >= 1 of (-1)^(s-1) C(r, s) D(m-2s, n).

    C(r, s) = 0 for s > r and the D conventions truncate the sum at
    s = min(r, floor(m/2)). The terms come from the D column.
    """
    _validate(m, n, r)
    return _column_sums(_d_column(m, n, r, dim_D(m, n), _d_levels(m, n, r)), r)[0]


def dim_I_sum(m: int, n: int, r: int) -> int:
    """Image dimension as the alternating sum over s >= 0 of (-1)^s C(r, s) D(m-2s, n).

    C(r, s) = 0 for s > r and the D conventions truncate the sum at
    s = min(r, floor(m/2)). The terms come from the D column.
    """
    _validate(m, n, r)
    return _column_sums(_d_column(m, n, r, dim_D(m, n), _d_levels(m, n, r)), r)[1]


def dim_I_hyp(m: int, n: int, r: int) -> Fraction:
    """Image dimension via the hypergeometric route, as an exact rational.

    Returns C(n+m-2, m) * 3F2(-r, -m/2, (1-m)/2; (2-n-m)/2, (3-n-m)/2; 1),
    the series summed by the int kernel over L = 2. The value is integral
    and equals ``dim_I_sum`` whenever the series is defined; it is returned
    unconverted so that an integrality failure would be observable rather
    than masked. Series errors propagate.
    """
    _validate(m, n, r)
    return Fraction(_i_hyp(m, n, r, dim_D(m, n)))


def _i_hyp(m: int, n: int, r: int, d: int) -> int | Fraction:
    """d times the 3F2 of ``dim_I_hyp``: the int when it is integral, else its Fraction.

    The kernel gives the 3F2 as an unreduced (num, den), den != 0 of either
    sign. With q, rem = divmod(d num, den), d num / den is integral iff
    rem == 0, and is then q. Series errors propagate.
    """
    num, den, _ = _eval_scaled_3f2(-2 * r, -m, 1 - m, 2 - n - m, 3 - n - m, 2, 1, 1)
    q, rem = divmod(d * num, den)
    return Fraction(d * num, den) if rem else q


def _sweep(col: list[int], top: int) -> list[int]:
    """sum_s C(r, s) col[s] for r = 0, 1, ..., top: the sweep (module docstring, "The D column")."""
    row = [col[-1]] * (top + 1)
    for c in col[-2::-1]:
        row = list(accumulate(islice(row, top), initial=c))
    return row


def _hyp_column(m: int, n: int, top: int, d: int) -> list[int]:
    """The 3F2 column: d times the 3F2 of ``dim_I_hyp`` at r <= top is its sweep at r.

    With a2, a3 = -m/2, (1-m)/2 and b1, b2 = (2-n-m)/2, (3-n-m)/2, and
    (-r)_k / k! = (-1)^k C(r, k), d times the 3F2 is sum_k C(r, k) w_k for
    w_k = (-1)^k d (a2)_k (a3)_k / ((b1)_k (b2)_k). On the kernel's ints over
    L = 2, step j multiplies the upper product by (p2+2j)(p3+2j), p2 = -m,
    p3 = 1-m, and the lower by (q1+2j)(q2+2j), q1 = 2-n-m, q2 = 3-n-m; the
    powers of L cancel. The column ends at the first step with a zero factor:
    a zero numerator, first at j = m // 2, so depth = min(top, m // 2), or a
    zero denominator, a pole, which leaves the column shorter than that, by
    the kernel's rule. From w_0 = d each entry is w_(j+1) = -w_j (p2+2j)(p3+2j)
    / ((q1+2j)(q2+2j)), an int (module docstring, "The D column"), so the
    floor division is exact.
    """
    factors = (
        ((2 * j - m) * (2 * j + 1 - m), (2 * j + 2 - n - m) * (2 * j + 3 - n - m))
        for j in range(top)
    )
    # The column ends at the first zero factor.
    return list(accumulate(takewhile(all, factors), lambda w, ab: -w * ab[0] // ab[1], initial=d))


ExtremeImageDims = namedtuple("ExtremeImageDims", "at_n at_n_minus_1")


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

    Both are n (n-1) ... (n-m+2) / m! * (n+1-2m), a falling product of m-1
    factors, exact, and equal ``dim_I_extremes(m, n).at_n``. Requires m >= 2,
    so that both parities have a nonempty product.
    """
    _validate(m, n, 0)
    if m < 2:
        raise DomainError(f"product form requires m >= 2, got {m}")
    return Fraction(math.perm(n, m - 1) * (n + 1 - 2 * m), math.factorial(m))


def compute_record(query: DimQuery) -> DimensionRecord:
    """Run every route for one query and report, never raise, on disagreement.

    The values are those of the one row of ``_block(m, n, (r,))``, a block
    of single queries. A 3F2 error (at n = 1, where a lower parameter can
    vanish too early) goes to ``hyp_error``, and any disagreement to
    ``routes_agree = False``.
    """
    return DimensionRecord(query, *next(_block(query.m, query.n, (query.r,)))[_QUERY:])


def _block(
    m: int, n: int, rs: Sequence[int], limit: int = 0, chain: list | None = None
) -> tuple | Iterator[tuple]:
    """The block of (m, n) over ``rs``, which ascend: a zipped block's columns, else its rows.

    D, the D levels, both K rows K(m, n, 0..R) and the D column are built
    once, at R = rs[-1]. A block of r = 0, 1, ..., R with R >= 1 (for
    strictly ascending ``rs``, R == len(rs) - 1) is swept and, if it passes
    its verdict, zipped (module docstring, "The D column"): it is the tuple
    (m, n, D, rs, K, I, valid) of its constants and its columns, with
    K_recursion == K_reduction == K_closed == K[j], I_sum == I_hyp ==
    I_subtract == I[j] and in_validity_range == valid[j] at r = rs[j], each
    column a list. Every other block is a generator of its rows, laid out as
    ``_ROW_FIELDS``, each a single query from one ``_column_sums`` and one
    ``_i_hyp`` at its r when it is asked for. ``_rows`` gives either's rows.

    The levels and rows come from the base, or, in a table, from ``chain``,
    which block (m - 2, n) over the same ``rs`` filled with its D, D levels
    and K rows: this block's levels are those and that D, the last R of
    them, and each K row is that route's row stepped once with that D. A
    zipped block, whose verdict checked all of them, leaves its own in the
    chain; any other block empties it, so the next block starts from the
    base and reads no row of a failed verdict.

    A nonzero ``limit`` is a digit limit for printed rows: every row holds
    D, so a D of more than ``limit`` digits raises ValueError before the
    levels, rows and column, and before D itself where m and n make its size
    certain. With N = m + n - 2, D = C(N, m) < 2^N, so N <= 3 limit needs no
    test. Else, when j = min(m, n - 2) >= 1 and b is the bit length of
    N // j, D = C(N, j) >= (N // j)^j >= 2^(j (b - 1)), so j (b - 1) >= 4 limit
    raises at once. Only the rest computes D, cheaply (there j < 4 limit, or
    n <= 2 and D <= 1), and compares it: a D below 2^(3 limit) < 10^limit
    passes on one bit_length test. Callers that print pass the interpreter's
    int-to-str limit; library callers pass none and get exact rows at any size.

    D's test bounds the K and I of a zipped block at every r <= n - 1: there
    I_sum counts the multisets of m of n - 1 kinds (D(m, n) of them) in which
    each of r given kinds occurs at most once, by inclusion-exclusion over
    the kinds forced to occur twice, so 0 <= I <= D and 0 <= K = D - I <= D.
    At r = n, I = C(n, m) - C(n, m - 1) is negative for n < 2m - 1, where K =
    D - I passes D. So a zipped block whose last K or -I is 2^(3 limit) or
    more is returned as rows, which a writer prints one at a time and so
    stops at the record past the limit.
    """
    top = rs[-1]
    if limit and m + n - 2 > 3 * limit:
        j = min(m, n - 2)
        if j > 0 and j * (((m + n - 2) // j).bit_length() - 1) >= 4 * limit:
            raise ValueError("D exceeds the int-to-str limit")
    d = dim_D(m, n)
    if limit and d.bit_length() > 3 * limit and d >= 10 ** limit:
        raise ValueError("D exceeds the int-to-str limit")
    if chain:
        d_below, ds, rec_row, red_row = chain
        # D(m - 2, n) joins the levels below it, and the lowest of R falls off.
        ds = [*ds[len(ds) == top :], d_below]
        # K(m, n, 0..R) reads K(m - 2, n, 0..R-1) alone.
        rec_row = _k_recursion_steps(rec_row[:top], (d_below,))
        red_row = _k_reduction_steps(red_row[:top], (d_below,))
    else:
        ds = _d_levels(m, n, top)
        rec_row, red_row = _k_recursion_row(m, top, ds), _k_reduction_row(m, top, ds)
    col = _d_column(m, n, top, d, ds)
    if 0 < top == len(rs) - 1:
        sums = _sweep(col, top)
        k_closed = [*map(sub, repeat(col[0]), sums)]
        if _hyp_column(m, n, top, d) == col and rec_row == red_row == k_closed:
            if chain is not None:
                chain[:] = d, ds, rec_row, red_row
            valid = [*map(and_, map(le, repeat(0), k_closed), map(le, repeat(0), sums))]
            block = m, n, d, rs, k_closed, sums, valid
            over = limit and max(k_closed[-1], -sums[-1]).bit_length() > 3 * limit
            return _rows(block) if over else block
    if chain:
        chain.clear()
    return _query_rows(m, n, rs, d, rec_row, red_row, col)


def _query_rows(
    m: int, n: int, rs: Sequence[int], d: int, rec_row: list[int], red_row: list[int], col: list[int]
) -> Iterator[tuple]:
    """The rows of a block built as single queries, each when it is asked for (``_block``)."""
    for r in rs:
        k_rec, k_red = rec_row[r], red_row[r]
        k_clo, i_sum = _column_sums(col, r)
        i_sub = d - k_clo
        try:
            i_hyp, hyp_error = _i_hyp(m, n, r, d), None
        except HyperEvalError as exc:
            i_hyp, hyp_error = None, str(exc)
        # None, and a Fraction that is not integral, equal no int.
        agree = k_rec == k_red == k_clo and i_hyp == i_sum == i_sub
        # Each K in 0..D (so D >= 0) and each I >= 0, I_subtract by K_closed <= D.
        valid = (
            0 <= k_rec <= d and 0 <= k_red <= d and 0 <= k_clo <= d
            and i_sum >= 0 and (i_hyp is None or i_hyp >= 0)
        )
        yield m, n, r, d, k_rec, k_red, k_clo, i_sum, i_hyp, i_sub, hyp_error, agree, valid


def _rows(block: tuple | Iterator[tuple]) -> Iterator[tuple]:
    """The rows of a ``_block``: a zipped block's are a ``zip`` of its columns."""
    if type(block) is not tuple:
        return block
    m, n, d, rs, k, i, valid = block
    return zip(repeat(m), repeat(n), rs, repeat(d), k, k, k, i, i, i,
               repeat(None), repeat(True), valid)


def _iter_blocks(
    m_range: tuple[int, int], n_range: tuple[int, int], r_policy: RPolicy = "all", limit: int = 0
) -> Iterator[tuple | Iterator[tuple]]:
    """Lazily yield the ``_block`` of each (m, n) of ``table``, with ``limit``, in (m, n) order.

    The bounds and the policy are checked when this is called, before the
    first block is computed, so bad input raises DomainError before a caller
    writes anything. Each block is over the policy's r values, and is
    computed when it is asked for; none is kept. Each n and parity of m is
    one chain (module docstring, "The K triangles"), kept only while a later
    block reads it, up to m = m_hi - 2: at most 3 (R + 1) ints for the top r
    value R of its n. So a caller that writes each block out runs in memory
    that grows with the n range, not with the m range or the number of
    blocks.
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
    return _walk(m_lo, m_hi, range(n_lo, n_hi + 1), _R_VALUES[r_policy], limit)


def _walk(
    m_lo: int, m_hi: int, ns: range, r_values: Callable[[int], Sequence[int]], limit: int
) -> Iterator[tuple | Iterator[tuple]]:
    """The blocks of ``_iter_blocks``, m walking up, each with its (n, parity of m) chain."""
    # chains[p][i], the chain of ns[i] at m = m_lo + p (mod 2), refilled by
    # each block; None where no later block reads it.
    chains = [[[] if m + 2 <= m_hi else None for _ in ns] for m in (m_lo, m_lo + 1)]
    for m in range(m_lo, m_hi + 1):
        links, last = chains[(m - m_lo) % 2], m + 2 > m_hi
        for i, n in enumerate(ns):
            chain = links[i]
            if last:
                links[i] = None
            yield _block(m, n, r_values(n), limit, chain)


def _iter_rows(
    m_range: tuple[int, int], n_range: tuple[int, int], r_policy: RPolicy = "all"
) -> Iterator[tuple]:
    """Lazily yield the rows of ``table``, in (m, n, r) order: those of ``_iter_blocks``."""
    return chain.from_iterable(map(_rows, _iter_blocks(m_range, n_range, r_policy)))


def iter_table(
    m_range: tuple[int, int], n_range: tuple[int, int], r_policy: RPolicy = "all"
) -> Iterator[DimensionRecord]:
    """Lazily yield the records of ``table``, one at a time, in (m, n, r) order.

    The records are built from the rows of ``_iter_rows``: the bounds and the
    policy are checked when this is called, and none is kept, so memory
    grows with the n range alone (``_iter_blocks``). Each record equals
    ``compute_record`` of its query.
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
