"""Route agreement at every n >= 2 and 0 <= r <= n, for each m <= 60.

At a fixed m every route is a polynomial in (n, r) of degree at most m in n
and floor(m/2) in r, as the ``dims`` module docstring argues. Two such
polynomials that agree on the grid n0..n0+m by 0..floor(m/2), with
n0 = max(2, floor(m/2)), are equal, so agreement on that proof grid proves
that the formulas agree at every n >= 2 and 0 <= r <= n of that m, with the
code as their evaluator. The degree checks test the code's side of the
argument: on a grid three points larger each way, the difference one order
past each degree bound vanishes. A branch the grids never reach, such as
one on n > 200, would escape both.
"""

from __future__ import annotations

from operator import sub

from selbergdim import dims

M_MAX = 60
I_SUM, K_RECURSION = map(dims._ROW_FIELDS.index, ("I_sum", "K_recursion"))


def _differences(values: list[int], order: int) -> list[int]:
    """The forward differences of the given order."""
    for _ in range(order):
        values = list(map(sub, values[1:], values))
    return values


def test_routes_agree_on_every_proof_grid():
    rows = disagree = 0
    for m in range(1, M_MAX + 1):
        n0 = max(2, m // 2)
        for n in range(n0, n0 + m + 1):
            for row in dims._block_rows(m, n, range(m // 2 + 1)):
                rows += 1
                disagree += not row[dims._AGREE]
    assert (rows, disagree) == (39_245, 0)


def test_route_degrees_in_n_and_r():
    # I_sum has degree <= m in n, K_recursion <= m - 2 (it starts from
    # K(1, n, r) = 0 and K(2, n, r) = r), and both <= floor(m/2) in r. Every
    # r of the grid is <= its smallest n, so each point is in the domain.
    failures = []
    for m in range(1, M_MAX + 1):
        n1 = max(2, m // 2 + 3)
        rs = range(m // 2 + 4)
        ns = range(n1, n1 + m + 4)
        grid = {n: list(dims._block_rows(m, n, rs)) for n in ns}
        for field, degree in ((I_SUM, m), (K_RECURSION, m - 2)):
            name = dims._ROW_FIELDS[field]
            for r in rs:
                if any(_differences([grid[n][r][field] for n in ns], degree + 1)):
                    failures.append(f"m={m} r={r}: {name} in n")
            for n in ns:
                if any(_differences([row[field] for row in grid[n]], m // 2 + 1)):
                    failures.append(f"m={m} n={n}: {name} in r")
    assert failures == []
