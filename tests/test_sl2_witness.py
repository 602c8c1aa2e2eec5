"""An sl2 singular-vector witness for the image dimension I.

The binomial routes and the 3F2 route all repackage one alternating sum, so
their agreement checks the code, not the formula. This witness shares no
formula with them. Let

    W = L^(x r) (x) M_l1 (x) ... (x) M_l(n-r),

with e acting on the tensor product as the sum over the factors. L is the
2-dimensional module (f^2 v = 0, e.f v = v) and M_l the Verma module of
highest weight l (e.f^k v = k (l-k+1) f^(k-1) v); both are the module of
highest weight l, cut at k <= l for L (l = 1). The weight space W[m] is
spanned by the tensors f^k1 v (x) ... (x) f^kn v with k1 + ... + kn = m.
The claim is

    dim ker(e: W[m] -> W[m-1]) = max(I(m, n, r), 0).

The rank of e is taken over F_p, p = 2^61 - 1, with every l_i = -(i+2), so
no coefficient k (l-k+1) vanishes. Then rank_p <= rank_Q, so the mod-p
kernel bounds the rational one from above, and the rational one is at least
dim W[m] - dim W[m-1]; a match with max(I, 0) is exact. Stdlib only, and not
part of ``verify all``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Optional

import pytest

from selbergdim.dims import dim_I_sum

P = 2**61 - 1
GRID = [(m, n, r) for m in range(1, 8) for n in range(1, 9) for r in range(n + 1)]

# A factor of W: the largest k with f^k v != 0 (None for a Verma module), and
# the coefficient c(k) of e.f^k v = c(k) f^(k-1) v.
Factor = tuple[Optional[int], Callable[[int], int]]


def highest_weight(lam: int, cap: Optional[int]) -> Factor:
    return cap, lambda k: k * (lam - k + 1)


TWO_DIM = highest_weight(1, 1)


def weight_basis(m: int, caps: list[Optional[int]]) -> Iterator[tuple[int, ...]]:
    """Every (k1, ..., kn) with sum m and each k_i at most its cap."""
    if not caps:
        if m == 0:
            yield ()
        return
    top = m if caps[0] is None else min(m, caps[0])
    for k in range(top + 1):
        for rest in weight_basis(m - k, caps[1:]):
            yield (k, *rest)


def rank_mod_p(rows: list[dict[int, int]]) -> int:
    """The rank over F_p of sparse rows, by elimination on each row's smallest column."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], P - 2, P)
                pivots[lead] = {col: value * inv % P for col, value in row.items()}
                break
            factor = row[lead]
            for col, value in pivot.items():
                new = (row.get(col, 0) - factor * value) % P
                if new:
                    row[col] = new
                else:
                    del row[col]
    return len(pivots)


def kernel_dim(m: int, factors: list[Factor]) -> int:
    """dim ker(e: W[m] -> W[m-1]) over F_p for W the tensor product of ``factors``."""
    caps = [cap for cap, _ in factors]
    index = {basis: i for i, basis in enumerate(weight_basis(m - 1, caps))}
    rows = []
    for basis in weight_basis(m, caps):
        row: dict[int, int] = {}
        for i, (k, (_, coeff)) in enumerate(zip(basis, factors)):
            value = coeff(k) % P if k else 0
            if value:
                # Each factor lowers a different k_i, so no two terms share a column.
                row[index[basis[:i] + (k - 1,) + basis[i + 1:]]] = value
        rows.append(row)
    return len(rows) - rank_mod_p(rows)


def witness(m: int, n: int, r: int, small: Factor = TWO_DIM) -> int:
    """The kernel dimension on W[m], with ``small`` as each of the r resonant factors."""
    vermas = [highest_weight(-(i + 2), None) for i in range(1, n - r + 1)]
    return kernel_dim(m, [small] * r + vermas)


@lru_cache(maxsize=None)
def witness_kernels() -> tuple[int, ...]:
    return tuple(witness(m, n, r) for m, n, r in GRID)


def mismatches(kernels, expected) -> list[tuple[int, int, int]]:
    return [point for point, got, want in zip(GRID, kernels, expected) if got != want]


def test_kernel_is_the_clamped_image_dimension():
    expected = [max(dim_I_sum(m, n, r), 0) for m, n, r in GRID]
    assert len(GRID) == 308
    assert mismatches(witness_kernels(), expected) == []


def test_the_clamp_matters_where_I_is_negative():
    # Without max(., 0) the witness disagrees exactly where I < 0.
    unclamped = [dim_I_sum(m, n, r) for m, n, r in GRID]
    assert len(mismatches(witness_kernels(), unclamped)) == 21


@pytest.mark.parametrize(
    "small, count",
    [
        # The 3-dimensional module: k <= 2, e.f^k v = k (3-k) f^(k-1) v.
        pytest.param(highest_weight(2, 2), 186, id="three-dim-module"),
        # e acting as 0 on the L factors.
        pytest.param((1, lambda k: 0), 35, id="e-zero-on-L"),
    ],
)
def test_a_wrong_module_is_seen(small, count):
    expected = [max(dim_I_sum(m, n, r), 0) for m, n, r in GRID]
    kernels = [witness(m, n, r, small) for m, n, r in GRID]
    assert len(mismatches(kernels, expected)) == count
