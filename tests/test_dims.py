import functools
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from operator import add
from typing import Iterator, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ROW_COLUMNS, DLevels, row_of
from selbergdim import cli, dims
from selbergdim.dims import (
    DimensionRecord,
    DimQuery,
    DomainError,
    compute_record,
    dim_D,
    dim_I_extremes,
    dim_I_full_resonance_product,
    dim_I_hyp,
    dim_I_sum,
    dim_K_closed,
    dim_K_recursion,
    dim_K_reduction,
    iter_table,
    table,
)
from selbergdim.exactnum import binom
from selbergdim.hyper import (
    HypParams3F2,
    HyperEvalError,
    NonTerminatingError,
    PoleBeforeTerminationError,
    ZeroDenominatorError,
    pfaff_saalschutz_rhs,
)
from selbergdim.suites import run_suites


class TestDimD:
    def test_basic(self):
        assert dim_D(2, 3) == 3  # C(3, 2)
        assert dim_D(4, 5) == 35  # C(7, 4)
        assert dim_D(1, 9) == 8  # C(8, 1)

    def test_conventions(self):
        assert dim_D(0, 7) == 1
        assert dim_D(-2, 7) == 0
        assert dim_D(-1, 3) == 0

    def test_n_one(self):
        assert dim_D(3, 1) == 0  # C(2, 3)


class TestKernelRoutes:
    def test_recursion_base_cases(self):
        for n in range(2, 8):
            for r in range(0, n + 1):
                assert dim_K_recursion(2, n, r) == r
                assert dim_K_recursion(1, n, r) == 0
            assert dim_K_recursion(5, n, 0) == 0

    def test_recursion_spot_value(self):
        # Telescoping by hand: K(4,5,1) = D(2,5) = 10, then
        # 10 + 10 - K(2,5,1) = 19, then 10 + 19 - K(2,5,2) = 27.
        assert dim_K_recursion(4, 5, 1) == 10
        assert dim_K_recursion(4, 5, 2) == 19
        assert dim_K_recursion(4, 5, 3) == 27

    def test_reduction_spot_value(self):
        # 3 * D(2,5) - K(2,5,1) - K(2,5,2) = 30 - 1 - 2 = 27.
        assert dim_K_reduction(4, 5, 3) == 27

    def test_reduction_m3_closed_form(self):
        for n in range(2, 10):
            for r in range(0, n + 1):
                assert dim_K_reduction(3, n, r) == r * (n - 1)

    def test_reduction_r1_is_dim_D(self):
        for m in range(2, 9):
            for n in range(2, 8):
                assert dim_K_reduction(m, n, 1) == dim_D(m - 2, n)
                assert dim_K_recursion(m, n, 1) == dim_D(m - 2, n)

    def test_closed_spot_value(self):
        # C(3,1)*10 - C(3,2)*1 = 30 - 3 = 27.
        assert dim_K_closed(4, 5, 3) == 27

    def test_closed_m2_needs_empty_case_convention(self):
        # Single term C(r,1)*D(0,n); correct only because D(0,n) = 1.
        for n in range(2, 10):
            for r in range(0, n + 1):
                assert dim_K_closed(2, n, r) == r

    def test_closed_r_zero(self):
        assert dim_K_closed(6, 9, 0) == 0

    def test_alternating_sums_stop_at_r(self, monkeypatch):
        # C(r, s) = 0 for s > r, so at r = 3 each sum reads the terms s = 0..3
        # only, not m // 2 = 300 terms: one C inside dim_D for each
        # D(600 - 2s, 3) = C(601 - 2s, 600 - 2s), D(600, 3) first and then the
        # triangles' levels upward; the C(r, s) are math.comb's.
        calls = []
        terms = [(601, 600), (595, 594), (597, 596), (599, 598)]

        def counting(r, s):
            calls.append((r, s))
            return binom(r, s)

        monkeypatch.setattr(dims, "binom", counting)
        # 3 D(598, 3) - 3 D(596, 3) + D(594, 3) = 3*599 - 3*597 + 595.
        assert dim_K_closed(600, 3, 3) == 601
        assert calls == terms
        calls.clear()
        assert dim_I_sum(600, 3, 3) == 0
        assert calls == terms

    def test_domain_errors(self):
        for fn in (dim_K_recursion, dim_K_reduction, dim_K_closed, dim_I_sum, dim_I_hyp):
            with pytest.raises(DomainError):
                fn(3, 5, -1)
            with pytest.raises(DomainError):
                fn(3, 5, 6)
            with pytest.raises(DomainError):
                fn(0, 5, 1)
            for bad in (True, 2.0, "2"):
                for fields in ((bad, 4, 1), (2, bad, 1), (2, 4, bad)):
                    with pytest.raises(DomainError, match="must be an int"):
                        fn(*fields)
        for bad in (True, 2.0, "2", Fraction(2)):
            with pytest.raises(DomainError, match="^m must be an int"):
                dim_D(bad, 3)
            with pytest.raises(DomainError, match="^n must be an int"):
                dim_D(2, bad)
            with pytest.raises(DomainError, match="^n must be an int"):
                dim_D(0, bad)
        for m in (1, 2):
            with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
                dim_D(m, 0)
        assert (dim_D(0, 0), dim_D(-1, 0), dim_D(-3, 5)) == (1, 0, 0)


class TestImageRoutes:
    def test_sum_r_zero_is_total(self):
        for m in range(1, 8):
            for n in range(2, 8):
                assert dim_I_sum(m, n, 0) == dim_D(m, n)

    def test_sum_spot_values(self):
        assert dim_I_sum(4, 5, 3) == 8  # 35 - 3*10 + 3*1
        assert dim_I_sum(2, 4, 3) == 3  # C(3, 2)

    def test_hyp_spot_values(self):
        assert dim_I_hyp(4, 5, 3) == Fraction(8)  # 35 * 8/35
        assert dim_I_hyp(2, 4, 4) == Fraction(2)  # 6 * (1 - 2/3)

    def test_hyp_r_zero_is_prefactor(self):
        for m in range(1, 7):
            for n in range(2, 7):
                assert dim_I_hyp(m, n, 0) == binom(n + m - 2, m)

    def test_hyp_is_integral_rational(self):
        value = dim_I_hyp(5, 7, 4)
        assert isinstance(value, Fraction)
        assert value.denominator == 1

    def test_pfaff_saalschutz_witness_at_r_n_minus_1(self):
        # At r = n - 1 the image series is balanced, so Pfaff-Saalschuetz
        # sums it in closed form; D times that closed form must equal
        # C(n-1, m) and the hypergeometric route. Where the closed form's
        # denominator vanishes only a cancelled limit would apply, so those
        # points are counted, and the counts pin that none were skipped
        # silently.
        agree, disagree, no_closed_form = 0, [], 0
        for m in range(1, 12):
            for n in range(2, 16):
                try:
                    rhs = pfaff_saalschutz_rhs(
                        Fraction(-m, 2), Fraction(1 - m, 2), Fraction(2 - n - m, 2), n - 1
                    )
                except ZeroDenominatorError:
                    no_closed_form += 1
                    continue
                if dim_D(m, n) * rhs == binom(n - 1, m) == dim_I_hyp(m, n, n - 1):
                    agree += 1
                else:
                    disagree.append((m, n))
        assert disagree == []
        assert (agree, no_closed_form) == (55, 99)


class TestExtremeResonance:
    def test_spot_values(self):
        assert dim_I_extremes(2, 4) == (2, 3)
        assert dim_I_extremes(3, 6) == (5, 10)  # (20 - 15, 10)

    def test_small_n_goes_negative(self):
        # C(2,2) - C(2,1) = -1 at full resonance; at r = n - 1 = 1 the value
        # is C(1,2) = 0, confirmed by the alternating-sum route below.
        assert dim_I_extremes(2, 2) == (-1, 0)
        assert dim_I_sum(2, 2, 1) == 0

    def test_matches_sum_route(self):
        for m in range(1, 9):
            for n in range(max(m, 1), 13):
                at_n, at_n_minus_1 = dim_I_extremes(m, n)
                assert at_n == dim_I_sum(m, n, n), (m, n)
                assert at_n_minus_1 == dim_I_sum(m, n, n - 1), (m, n)

    def test_product_form_spot_values(self):
        assert dim_I_full_resonance_product(2, 4) == 2  # (4/2!) * 1
        assert dim_I_full_resonance_product(3, 6) == 5  # (30/3!) * 1
        assert dim_I_full_resonance_product(2, 3) == 0  # vanishing last factor

    def test_product_form_matches_extremes(self):
        for m in range(2, 41):
            for n in range(1, 61):
                assert dim_I_full_resonance_product(m, n) == dim_I_extremes(m, n).at_n

    def test_product_form_requires_m_at_least_two(self):
        with pytest.raises(DomainError):
            dim_I_full_resonance_product(1, 5)


class TestComputeRecord:
    def test_agreeing_record(self):
        rec = compute_record(DimQuery(4, 5, 3))
        assert rec.D == 35
        assert rec.K_recursion == rec.K_reduction == rec.K_closed == 27
        assert rec.I_sum == rec.I_subtract == 8 and rec.I_hyp == 8
        assert rec.routes_agree and rec.in_validity_range
        assert rec.K == 27 and rec.I == 8

    @pytest.mark.parametrize("i_hyp", [5, Fraction(5), Fraction(1, 2), None])
    def test_record_stores_an_int_I_hyp_as_its_Fraction(self, i_hyp):
        rec = DimensionRecord(DimQuery(4, 5, 3), 35, 27, 27, 27, 8, i_hyp, 8, None, False, True)
        assert rec.I_hyp == i_hyp
        assert type(rec.I_hyp) is (type(None) if i_hyp is None else Fraction)

    def test_out_of_validity_record(self):
        rec = compute_record(DimQuery(2, 2, 2))
        assert rec.D == 1
        assert rec.K_closed == 2
        assert rec.I_sum == -1
        assert rec.I_hyp == Fraction(-1)
        assert rec.routes_agree
        assert not rec.in_validity_range

    @pytest.mark.parametrize(
        "route,forced",
        [
            ("_k_recursion_row", lambda m, r, ds: [-1] * (r + 1)),
            ("_k_reduction_row", lambda m, r, ds: [36] * (r + 1)),
            # The kernel's (num, den, terms): d num / den = 35 (-1) / 70 = -1/2,
            # and 35 (1) / (-70) = -1/2.
            ("_eval_scaled_3f2", lambda *args: (-1, 70, 1)),
            ("_eval_scaled_3f2", lambda *args: (1, -70, 1)),
            ("_column_sums", lambda col, r: (36, 8)),
            ("_column_sums", lambda col, r: (27, -1)),
        ],
        ids=[
            "dim_K_recursion -1",
            "dim_K_reduction 36",
            "dim_I_hyp -1/2",
            "dim_I_hyp -1/2 over a negative den",
            "_column_sums K_closed 36",
            "_column_sums I_sum -1",
        ],
    )
    def test_each_validity_bound_is_checked(self, monkeypatch, route, forced):
        # D(4, 5) = 35: one forced value below 0 or a K above D is out of range,
        # even though the other routes stay in it.
        monkeypatch.setattr(dims, route, forced)
        rec = compute_record(DimQuery(4, 5, 3))
        assert not rec.routes_agree
        assert not rec.in_validity_range

    @pytest.mark.parametrize("pair", [(1, 70), (-1, -70), (17, 70)], ids=["1/2", "-1/-2", "17/2"])
    def test_positive_non_integral_I_hyp_disagrees_but_is_in_range(self, monkeypatch, pair):
        # D(4, 5) = 35: I_hyp = 35 num / den is 1/2 or 17/2, never the int 8.
        monkeypatch.setattr(dims, "_eval_scaled_3f2", lambda *args: (*pair, 1))
        rec = compute_record(DimQuery(4, 5, 3))
        assert rec.I_hyp == Fraction(35 * pair[0], pair[1]) and type(rec.I_hyp) is Fraction
        assert not rec.routes_agree
        assert rec.in_validity_range

    def test_record_validates_once_and_computes_D_once(self, monkeypatch):
        calls = []
        validate, d = dims._validate, dims.dim_D
        monkeypatch.setattr(dims, "_validate", lambda *a: calls.append(a) or validate(*a))
        monkeypatch.setattr(dims, "dim_D", lambda *a: calls.append(a) or d(*a))
        rec = compute_record(DimQuery(7, 9, 4))
        assert calls.count((7, 9, 4)) == 1 and calls.count((7, 9)) == 1
        assert rec.routes_agree

    def test_r_zero_record(self):
        rec = compute_record(DimQuery(5, 7, 0))
        assert rec.K_closed == 0
        assert rec.I_sum == rec.D
        assert rec.routes_agree

    def test_n_one_hyp_pole_is_flagged_not_raised(self):
        # At (2, 1, 1), the domain's one pole point, a lower series parameter
        # vanishes too early; the record carries the error instead of aborting.
        rec = compute_record(DimQuery(2, 1, 1))
        assert rec.I_hyp is None
        assert rec.hyp_error is not None
        assert not rec.routes_agree
        assert rec.K is None and rec.I is None
        assert rec.I_sum == rec.I_subtract == -1  # integer routes still filled

    def test_n_one_disagrees_only_at_the_pole(self):
        # r <= n = 1, so (2, 1, 1) is the only point of n = 1 where the series
        # has its pole. Every block row and every single query at n = 1,
        # m <= 400, agrees but those at (2, 1, 1).
        disagree = [
            (kind, row[:3])
            for m in range(1, 401)
            for kind, rows in (
                ("block", dims._block_rows(m, 1, range(2))),
                ("single", (next(dims._block_rows(m, 1, (r,))) for r in (0, 1))),
            )
            for row in rows
            if not row[_AGREE]
        ]
        assert disagree == [("block", (2, 1, 1)), ("single", (2, 1, 1))]

    def test_query_validation(self):
        with pytest.raises(DomainError):
            DimQuery(0, 4, 1)
        with pytest.raises(DomainError):
            DimQuery(2, 0, 0)
        with pytest.raises(DomainError):
            DimQuery(2, 4, 5)
        with pytest.raises(DomainError):
            DimQuery(2, 4, -1)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_query_requires_exact_int(self, bad):
        for fields in ((bad, 4, 1), (2, bad, 1), (2, 4, bad)):
            with pytest.raises(DomainError):
                DimQuery(*fields)


class TestTable:
    def test_row_count_all(self):
        rows = table((2, 2), (4, 4), "all")
        assert len(rows) == 5
        assert [rec.query.r for rec in rows] == [0, 1, 2, 3, 4]

    def test_only_n_grid(self):
        rows = table((2, 4), (4, 6), "only_n")
        assert len(rows) == 9
        assert all(rec.routes_agree for rec in rows)
        assert all(rec.query.r == rec.query.n for rec in rows)

    def test_only_n_minus_1(self):
        rows = table((3, 3), (5, 6), "only_n_minus_1")
        assert [(rec.query.n, rec.query.r) for rec in rows] == [(5, 4), (6, 5)]

    def test_lexicographic_order(self):
        rows = table((2, 3), (2, 3), "all")
        keys = [(rec.query.m, rec.query.n, rec.query.r) for rec in rows]
        assert keys == sorted(keys)

    def test_bad_ranges(self):
        with pytest.raises(DomainError):
            table((3, 2), (4, 4), "all")
        with pytest.raises(DomainError):
            table((2, 2), (0, 4), "all")
        with pytest.raises(DomainError):
            table((2, 2), (4, 4), "sometimes")
        for bounds in (((1, 2.5), (2, 3)), ((1, 2), (True, 3)), ((1, True), (2, 3))):
            with pytest.raises(DomainError, match="must be an int"):
                table(*bounds)


class TestConcurrency:
    def test_concurrent_callers_see_identical_records(self):
        queries = [DimQuery(m, n, r) for m in (2, 5, 8) for n in (3, 9) for r in range(0, 4)]

        def worker(_):
            return [compute_record(q) for q in queries]

        with ThreadPoolExecutor(max_workers=8) as pool:
            batches = list(pool.map(worker, range(16)))
        assert all(batch == batches[0] for batch in batches)
        assert all(rec.routes_agree for rec in batches[0])


class TestRouteEquivalence:
    """The big exhaustive grids live in the acceptance suite; these sample."""

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=10),
        st.data(),
    )
    def test_all_routes_agree(self, m, n, data):
        r = data.draw(st.integers(min_value=0, max_value=n))
        rec = compute_record(DimQuery(m, n, r))
        assert rec.routes_agree, (m, n, r)
        assert rec.D == rec.K_closed + rec.I_sum

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=10))
    def test_record_agreement_flag_matches_fields(self, m, n):
        rec = compute_record(DimQuery(m, n, n // 2))
        assert rec.routes_agree == (
            rec.K_recursion == rec.K_reduction == rec.K_closed
            and rec.I_hyp is not None
            and Fraction(rec.I_sum) == rec.I_hyp
            and rec.I_sum == rec.I_subtract
        )
        assert isinstance(rec, DimensionRecord)


# The memoized recurrences the row builders replaced, kept verbatim as an oracle.


@functools.cache
def _k_recursion(m: int, n: int, r: int) -> int:
    if r == 0 or m == 1:
        return 0
    if m == 2:
        return r
    return dim_D(m - 2, n) + _k_recursion(m, n, r - 1) - _k_recursion(m - 2, n, r - 1)


@functools.cache
def _k_reduction(m: int, n: int, r: int) -> int:
    if r == 0 or m == 1:
        return 0
    if m == 2:
        return r
    return r * dim_D(m - 2, n) - sum(_k_reduction(m - 2, n, t) for t in range(1, r))


class TestRowBuildersMatchMemoizedOracle:
    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.data(),
    )
    def test_small_grid(self, m, n, data):
        r = data.draw(st.integers(min_value=0, max_value=n))
        assert dim_K_recursion(m, n, r) == _k_recursion(m, n, r)
        assert dim_K_reduction(m, n, r) == _k_reduction(m, n, r)

    @pytest.mark.parametrize("m", [199, 200])
    @pytest.mark.parametrize("r", [0, 1, 79, 80])
    def test_large_points(self, m, r):
        assert dim_K_recursion(m, 80, r) == _k_recursion(m, 80, r)
        assert dim_K_reduction(m, 80, r) == _k_reduction(m, 80, r)


# The full-row builders the triangles replaced, kept verbatim as an oracle:
# each builds K(m, n, 0..n) at every level from the base of m's parity chain.


def _k_base_row(m: int, n: int) -> list[int]:
    return list(range(n + 1)) if m % 2 == 0 else [0] * (n + 1)


def _k_recursion_full_row(m: int, n: int) -> list[int]:
    row = _k_base_row(m, n)
    for step in range(4 - m % 2, m + 1, 2):
        d = dim_D(step - 2, n)
        row = list(itertools.accumulate((d - old for old in row[:-1]), initial=0))
    return row


def _k_reduction_full_row(m: int, n: int) -> list[int]:
    row = _k_base_row(m, n)
    for step in range(4 - m % 2, m + 1, 2):
        d = dim_D(step - 2, n)
        prefix = itertools.accumulate(row[:-1], initial=0)
        row = [r * d - acc for r, acc in enumerate(prefix)]
    return row


# Triangles of no step (m = 1, 2), of (m-1)//2 steps, of r steps, and of r
# steps at a huge m.
_STEP_POINTS = [(1, 5, 5), (2, 5, 5), (7, 9, 4), (8, 9, 2), (200, 80, 80), (10**13, 3, 2)]
_K_REC, _K_RED, _AGREE = map(ROW_COLUMNS.index, ("K_recursion", "K_reduction", "routes_agree"))


class TestTriangleBuilders:
    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=80),
        st.data(),
    )
    def test_triangle_is_the_full_row_cut_to_r(self, m, n, data):
        r = data.draw(st.integers(min_value=0, max_value=n))
        ds = DLevels(m, n, r)
        assert dims._k_recursion_row(m, r, ds) == _k_recursion_full_row(m, n)[: r + 1]
        assert dims._k_reduction_row(m, r, ds) == _k_reduction_full_row(m, n)[: r + 1]

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 80), (3, 1), (199, 80), (200, 80)])
    def test_every_r_at_the_corners(self, m, n):
        rec_row, red_row = _k_recursion_full_row(m, n), _k_reduction_full_row(m, n)
        for r in range(n + 1):
            ds = DLevels(m, n, r)
            assert dims._k_recursion_row(m, r, ds) == rec_row[: r + 1]
            assert dims._k_reduction_row(m, r, ds) == red_row[: r + 1]

    @pytest.mark.parametrize(
        "m,n,r",
        [(1, 5, 5), (2, 5, 5), (3, 5, 0), (7, 9, 4), (8, 9, 2), (9, 4, 4), (200, 80, 80)],
    )
    def test_compute_record_gets_rows_of_width_r_plus_1(self, monkeypatch, m, n, r):
        built = {}

        def measured(name):
            build = getattr(dims, name)

            def measure(*args):
                row = build(*args)
                built.setdefault(name, []).append(len(row))
                return row

            return measure

        for name in ("_k_recursion_row", "_k_reduction_row"):
            monkeypatch.setattr(dims, name, measured(name))
        assert compute_record(DimQuery(m, n, r)).routes_agree
        widths = list(zip(built["_k_recursion_row"], built["_k_reduction_row"]))
        assert widths == [(r + 1, r + 1)]

    @pytest.fixture
    def dim_d_levels(self, monkeypatch):
        """The m of every ``dim_D`` call while the test runs."""
        levels = []

        def counting(m_, n_):
            levels.append(m_)
            return dim_D(m_, n_)

        monkeypatch.setattr(dims, "dim_D", counting)
        return levels

    @pytest.mark.parametrize("m,n,r", _STEP_POINTS)
    def test_each_step_is_one_dim_D(self, dim_d_levels, m, n, r):
        # The triangles take min((m-1)//2, r) steps, one D(m'-2, n) each.
        steps = min((m - 1) // 2, r)
        ds = dims._d_levels(m, n, r)
        assert dim_d_levels == list(range(m - 2 * steps, m - 1, 2))
        assert ds == [dim_D(level, n) for level in dim_d_levels]
        # Neither builder calls dim_D.
        for builder in (dims._k_recursion_row, dims._k_reduction_row):
            assert len(builder(m, r, ds)) == r + 1
        assert len(dim_d_levels) == steps

    @pytest.mark.parametrize("m,n,r", _STEP_POINTS)
    def test_a_block_computes_each_level_once(self, dim_d_levels, m, n, r):
        # One dim_D per term D(m - 2s, n) of the column, s = 0..min(r, m // 2):
        # D(m, n), the triangle levels, which both builders and the column
        # share, and D(0, n) where the column is one term deeper.
        assert next(dims._block_rows(m, n, (r,)))[_AGREE]
        assert sorted(dim_d_levels) == [m - 2 * s for s in range(min(r, m // 2), -1, -1)]

    @staticmethod
    def routes_failures() -> tuple[int, list[tuple]]:
        """The failed checks of ``verify routes``, and its grid's rows, 1..8 x 2..10."""
        [result] = run_suites("routes")
        return result.failed, list(dims._iter_rows((1, 8), (2, 10)))

    def test_shifted_d_levels_break_the_routes(self, monkeypatch):
        # D(m', n) where D(m'-2, n) belongs: both triangles and the D column
        # read the same wrong list, so the three K routes agree with each
        # other, but not with the 3F2, which takes its terms from D(m, n) alone.
        def shifted(m, n, r):
            steps = min((m - 1) // 2, r)
            return [dim_D(level + 2, n) for level in range(m - 2 * steps, m - 1, 2)]

        monkeypatch.setattr(dims, "_d_levels", shifted)
        failed, rows = self.routes_failures()
        assert all(row[_K_REC] == row[_K_RED] for row in rows)
        assert failed > 0
        assert not all(row[_AGREE] for row in rows)

    @pytest.mark.parametrize("builder", ["_k_recursion_row", "_k_reduction_row"])
    def test_perturbed_levels_for_one_builder_break_the_routes(self, monkeypatch, builder):
        build = getattr(dims, builder)
        monkeypatch.setattr(dims, builder, lambda m, r, ds: build(m, r, [d + 1 for d in ds]))
        failed, rows = self.routes_failures()
        assert failed > 0
        assert not all(row[_AGREE] for row in rows)

    @pytest.mark.parametrize(
        "wrong_d",
        [
            lambda m, n, true: math.comb(n + m - 1, m) if m >= 0 else 0,
            lambda m, n, true: true(m, n) + (m >= 3),
            # Only the D column reads D(0, n), and only through dim_D.
            lambda m, n, true: 0 if m == 0 else true(m, n),
            lambda m, n, true: 2 * true(m, n),
        ],
        ids=["C(n+m-1, m)", "+1 at m >= 3", "D(0, n) = 0", "2 D"],
    )
    def test_a_wrong_dim_D_breaks_the_routes(self, monkeypatch, wrong_d):
        # The triangles and the D column read the same D values, so the K
        # routes agree with each other whatever they are; the 3F2, built from
        # D(m, n) alone, is what a wrong D must fail against.
        monkeypatch.setattr(dims, "dim_D", lambda m, n, true=dims.dim_D: wrong_d(m, n, true))
        failed, _ = self.routes_failures()
        assert failed > 0
        points = [(m, n, r) for m in range(1, 13) for n in range(2, 13) for r in range(n + 1)]
        assert not all(compute_record(DimQuery(*point)).routes_agree for point in points)


class TestDeepInputsAndBoundedTables:
    def test_cli_deep_query_answers(self, capsys):
        assert cli.main(["dims", "-m", "3", "-n", "990", "-r", "990", "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        expected = 990 * 989
        assert rec["K_recursion"] == rec["K_reduction"] == rec["K_closed"] == expected
        assert rec["routes_agree"] is True

    @pytest.mark.parametrize(
        "m,n,r,K",
        [
            (10**13, 2, 0, 0),
            # K = 2 D(m-2, 3) - D(m-4, 3) = 2 (m-1) - (m-3) = m + 1 = D(m, 3).
            (10**13, 3, 2, 10**13 + 1),
            # K = 3 D(m-2, 80) - 3 D(m-4, 80) + D(m-6, 80), with D(M, 80) = C(M+78, 78).
            (
                10**6,
                80,
                3,
                3 * math.comb(10**6 + 76, 78)
                - 3 * math.comb(10**6 + 74, 78)
                + math.comb(10**6 + 72, 78),
            ),
        ],
    )
    def test_huge_m_with_small_r_answers_at_once(self, m, n, r, K):
        # The rows climb min((m-1)//2, r) levels, not the (m-1)//2 of m's
        # whole parity chain, so each of these takes milliseconds.
        start = time.perf_counter()
        rec = compute_record(DimQuery(m, n, r))
        assert time.perf_counter() - start < 1
        assert rec.routes_agree
        assert rec.D == math.comb(n + m - 2, m)
        assert (rec.K, rec.I) == (K, rec.D - K)

    def test_m4_full_resonance_at_n_3000(self):
        n = r = 3000
        expected = r * binom(n, 2) - binom(r, 2)
        for route in (dim_K_recursion, dim_K_reduction, dim_K_closed):
            assert route(4, n, r) == expected

    @pytest.fixture
    def row_builds(self, monkeypatch):
        """The (m, n) of every K row built, by builder name, while the test runs."""
        builds = {}

        def counting(name):
            calls = builds[name] = []
            build = getattr(dims, name)

            def counted(m, r, ds):
                calls.append((m, ds.n))
                return build(m, r, ds)

            return counted

        # Each builder call's list is a DLevels, which keeps its n.
        monkeypatch.setattr(dims, "_d_levels", DLevels)
        for name in ("_k_recursion_row", "_k_reduction_row"):
            monkeypatch.setattr(dims, name, counting(name))
        return builds

    def test_table_builds_each_row_once_per_m_n(self, row_builds):
        # 30 * 29 = 870 (m, n), and 14,790 records over them.
        assert len(table((1, 30), (2, 30))) == 14_790
        every_m_n = [(m, n) for m in range(1, 31) for n in range(2, 31)]
        assert row_builds == {"_k_recursion_row": every_m_n, "_k_reduction_row": every_m_n}

    def test_compute_record_builds_each_row_once(self, row_builds):
        compute_record(DimQuery(7, 9, 4))
        assert row_builds == {"_k_recursion_row": [(7, 9)], "_k_reduction_row": [(7, 9)]}

    @pytest.mark.parametrize("r_policy", dims.R_POLICIES)
    def test_table_records_equal_compute_record(self, r_policy):
        # Rows shared across r against rows built for one query; n = 1 holds
        # the hyp_error records.
        records = list(iter_table((1, 12), (1, 10), r_policy))
        assert any(rec.hyp_error is not None for rec in records) == (r_policy != "only_n_minus_1")
        for rec in records:
            assert rec == compute_record(rec.query)


def _span(hi: int, width: int) -> st.SearchStrategy[tuple[int, int]]:
    """An inclusive range lo..hi' in 1..hi, at most ``width`` + 1 long."""
    return st.integers(1, hi).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo, min(lo + width, hi)))
    )


class TestRowsMatchRecords:
    """``_iter_rows``, which the CLI's table writers take, against the public records."""

    @settings(max_examples=60, deadline=None)
    @given(_span(40, 3), _span(30, 5), st.sampled_from(dims.R_POLICIES))
    # n = 1 holds the hyp_error records.
    @example(m_range=(1, 4), n_range=(1, 6), r_policy="all")
    @example(m_range=(37, 40), n_range=(1, 1), r_policy="only_n")
    @example(m_range=(37, 40), n_range=(25, 30), r_policy="only_n_minus_1")
    def test_rows_are_the_records_of_iter_table(self, m_range, n_range, r_policy):
        rows = list(dims._iter_rows(m_range, n_range, r_policy))
        records = list(iter_table(m_range, n_range, r_policy))
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            # The row's I_hyp is an int when integral; the record's is a Fraction.
            assert_row_is_record(row, rec)
            assert type(rec.I_hyp) in (Fraction, type(None))
            assert_same_record(rec, compute_record(rec.query))


# The hypergeometric route as it was before dim_I_hyp called the int kernel
# directly: hyp_params, _eval_terms and eval_terminating_3f2, kept verbatim
# as an oracle.


def hyp_params(m: int, n: int, r: int) -> HypParams3F2:
    """The terminating 3F2 whose value, times C(n+m-2, m), is the image dimension.

    Upper row (-r, -m/2, (1-m)/2), lower row ((2-n-m)/2, (3-n-m)/2), at x=1.
    """
    return HypParams3F2(
        upper=(Fraction(-r), Fraction(-m, 2), Fraction(1 - m, 2)),
        lower=(Fraction(2 - n - m, 2), Fraction(3 - n - m, 2)),
    )


def _eval_terms(params: HypParams3F2) -> tuple[Fraction, int]:
    if not any(a.denominator == 1 and a.numerator <= 0 for a in params.upper):
        raise NonTerminatingError(
            "no upper parameter is a non-positive integer; series does not terminate"
        )
    a1, a2, a3 = params.upper
    b1, b2 = params.lower
    x = params.argument
    L = math.lcm(a1.denominator, a2.denominator, a3.denominator, b1.denominator, b2.denominator)
    p1, p2, p3 = (a.numerator * (L // a.denominator) for a in (a1, a2, a3))
    q1, q2 = (b.numerator * (L // b.denominator) for b in (b1, b2))
    u = x.numerator
    lv = L * x.denominator

    # Term 0 (= 1) is summed. At the top of each pass k is the index of the
    # next term and p*, q* hold p + (k-1)L, q + (k-1)L; term / den is the
    # last term summed and total / den the partial sum.
    total = den = term = 1
    k = 1
    while True:
        step_num = p1 * p2 * p3
        if step_num == 0:
            # Termination: every later numerator stays zero, including any
            # index where a denominator factor would also vanish.
            return Fraction(total, den), k
        step_den = q1 * q2 * k
        if step_den == 0:
            raise PoleBeforeTerminationError(k)
        step_den *= lv
        term *= step_num * u
        total = total * step_den + term
        den *= step_den
        p1 += L
        p2 += L
        p3 += L
        q1 += L
        q2 += L
        k += 1


def eval_terminating_3f2(params: HypParams3F2) -> Fraction:
    value, _ = _eval_terms(params)
    return value


def frozen_dim_I_hyp(m: int, n: int, r: int) -> Fraction:
    return dim_D(m, n) * eval_terminating_3f2(hyp_params(m, n, r))


def hyp_outcome(route, m, n, r):
    """The value with its type, or the exception's class and message."""
    try:
        value = route(m, n, r)
    except HyperEvalError as exc:
        return type(exc), str(exc)
    return type(value), value


class TestImageSeriesMatchesFrozenRoute:
    @settings(max_examples=400)
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=80),
        st.data(),
    )
    # n = r = 1: a pole at k = 1 (m = 2), numerator and denominator vanishing
    # together, which is termination (m = 4), and a plain value (m = 3).
    @example(m=2, n=1, data=None)
    @example(m=4, n=1, data=None)
    @example(m=3, n=1, data=None)
    def test_same_value_or_same_error(self, m, n, data):
        r = n if data is None else data.draw(st.integers(min_value=0, max_value=n))
        assert hyp_outcome(dim_I_hyp, m, n, r) == hyp_outcome(frozen_dim_I_hyp, m, n, r)

    def test_every_n1_point_up_to_m_60(self):
        outcomes = [
            hyp_outcome(dim_I_hyp, m, 1, r) == hyp_outcome(frozen_dim_I_hyp, m, 1, r)
            for m in range(1, 61)
            for r in (0, 1)
        ]
        assert all(outcomes)
        assert hyp_outcome(dim_I_hyp, 2, 1, 1) == (
            PoleBeforeTerminationError,
            "denominator vanishes at term k=1 before the series terminates",
        )


# The per-term alternating sums the term walk replaced, kept verbatim as an
# oracle.


def frozen_dim_K_closed(m: int, n: int, r: int) -> int:
    dims._validate(m, n, r)
    return sum(
        (-1) ** (s - 1) * binom(r, s) * dim_D(m - 2 * s, n)
        for s in range(1, min(r, m // 2) + 1)
    )


def frozen_dim_I_sum(m: int, n: int, r: int) -> int:
    dims._validate(m, n, r)
    return sum(
        (-1) ** s * binom(r, s) * dim_D(m - 2 * s, n) for s in range(0, min(r, m // 2) + 1)
    )


def d_column(m: int, n: int, r: int) -> list[int]:
    """``dims._d_column`` at (m, n, r), from the D(m, n) and the levels a block passes it."""
    return dims._d_column(m, n, r, dims.dim_D(m, n), dims._d_levels(m, n, r))


def frozen_d_column(m: int, n: int, r: int) -> list[int]:
    """(-1)^s D(m-2s, n), s = 0..min(r, m // 2), one ``dims.dim_D`` each: an oracle of its own."""
    return [(-1) ** s * dims.dim_D(m - 2 * s, n) for s in range(min(r, m // 2) + 1)]


class TestAlternatingSumsMatchFrozenRoutes:
    @settings(max_examples=400)
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=80),
        st.data(),
    )
    # n = 1 (D(M, 1) = 0 for M >= 1), odd and even m at full resonance, and
    # r past m // 2.
    @example(m=2, n=1, data=None)
    @example(m=7, n=3, data=None)
    @example(m=8, n=80, data=None)
    def test_same_values(self, m, n, data):
        r = n if data is None else data.draw(st.integers(min_value=0, max_value=n))
        assert dim_K_closed(m, n, r) == frozen_dim_K_closed(m, n, r)
        assert dim_I_sum(m, n, r) == frozen_dim_I_sum(m, n, r)

    def test_every_n1_point_up_to_m_60(self):
        for m in range(1, 61):
            for r in (0, 1):
                assert dim_K_closed(m, 1, r) == frozen_dim_K_closed(m, 1, r)
                assert dim_I_sum(m, 1, r) == frozen_dim_I_sum(m, 1, r)

    @pytest.mark.parametrize(
        "m,n,r", [(1, 5, 3), (6, 4, 2), (9, 5, 5), (40, 30, 12), (8, 5, 4), (2, 1, 1)]
    )
    def test_terms_are_the_signed_products_in_walk_order(self, m, n, r):
        terms = [(-1) ** s * binom(r, s) * dim_D(m - 2 * s, n) for s in range(min(r, m // 2) + 1)]
        column = d_column(m, n, r)
        assert column == frozen_d_column(m, n, r)
        assert len(column) == len(terms)
        assert dims._column_sums(column, r) == (-sum(terms[1:]), sum(terms))


_K_CLOSED, _I_SUM = map(dims._ROW_FIELDS.index, ("K_closed", "I_sum"))


class TestColumnSweep:
    """A block of r = 0..R sweeps the D column; a block of one r sums it at that r."""

    def test_every_swept_row_is_the_sum_at_its_r(self, monkeypatch):
        column_sums, calls = dims._column_sums, []
        monkeypatch.setattr(
            dims, "_column_sums", lambda col, r: calls.append((col, r)) or column_sums(col, r)
        )
        blocks = [(m, n) for m in range(1, 41) for n in range(1, 41)] + [(400, 400)]
        wrong = []
        for m, n in blocks:
            column = d_column(m, n, n)
            for row in dims._block_rows(m, n, range(n + 1)):
                if (row[_K_CLOSED], row[_I_SUM]) != column_sums(column, row[2]):
                    wrong.append(row[:3])
        assert wrong == []
        # Only the block that fails its verdict, (2, 1), sums its column, once per row.
        assert calls == [(d_column(2, 1, 1), 0), (d_column(2, 1, 1), 1)]

    def test_single_r_rows_are_the_swept_rows_at_their_r(self):
        swept = {row[:3]: row for row in dims._iter_rows((1, 12), (1, 40))}
        for r_policy in ("only_n", "only_n_minus_1"):
            rows = list(dims._iter_rows((1, 12), (1, 40), r_policy))
            assert len(rows) == 12 * 40
            for row in rows:
                assert row == swept[row[:3]]

    @settings(max_examples=300)
    @given(st.lists(st.integers(), min_size=1, max_size=12), st.integers(min_value=0, max_value=20))
    @example(col=[7], top=4)
    @example(col=[3, -1, 4, 1, -5], top=1)
    def test_sweep_yields_the_binomial_sums(self, col, top):
        given_col = list(col)
        want = [sum(math.comb(r, s) * c for s, c in enumerate(col)) for r in range(top + 1)]
        assert list(dims._sweep(col, top)) == want
        assert col == given_col


_HYP_ERROR, _VALID = map(ROW_COLUMNS.index, ("hyp_error", "in_validity_range"))


def kernel_pair(m: int, n: int, r: int) -> tuple[int, int]:
    """The 3F2 of ``dim_I_hyp`` as the unreduced (num, den) of ``dims._eval_scaled_3f2``.

    It reads the kernel from ``dims`` at each call, so a patched kernel
    reaches both the code and the oracles that call this.
    """
    return dims._eval_scaled_3f2(-2 * r, -m, 1 - m, 2 - n - m, 3 - n - m, 2, 1, 1)[:2]


def kernel_hyp(m: int, n: int, r: int) -> tuple:
    """(type, value) of I_hyp and hyp_error at (m, n, r) from ``kernel_pair``, as a row has them."""
    d = dim_D(m, n)
    try:
        num, den = kernel_pair(m, n, r)
    except HyperEvalError as exc:
        return type(None), None, str(exc)
    q, rem = divmod(d * num, den)
    i_hyp = Fraction(d * num, den) if rem else q
    return type(i_hyp), i_hyp, None


def recorded_i_hyp(monkeypatch) -> list[tuple[int, int, int]]:
    """Wrap ``dims._i_hyp`` so that it records each (m, n, r) it is called at."""
    i_hyp, calls = dims._i_hyp, []
    monkeypatch.setattr(
        dims, "_i_hyp", lambda m, n, r, d: calls.append((m, n, r)) or i_hyp(m, n, r, d)
    )
    return calls


class TestHypColumnSweep:
    """A block of r = 0..R compares its 3F2 column with its D column once.

    Equal columns give each row I_hyp = I_sum; where they differ, as in a
    block of one r, each row runs the kernel at its r.
    """

    def test_every_swept_row_is_the_kernel_at_its_r(self, monkeypatch):
        calls = recorded_i_hyp(monkeypatch)
        blocks = [(m, n) for m in range(1, 41) for n in range(1, 41)] + [(400, 400), (60, 3000)]
        wrong = []
        for m, n in blocks:
            for row in dims._block_rows(m, n, range(n + 1)):
                got = type(row[_I_HYP]), row[_I_HYP], row[_HYP_ERROR]
                if got != kernel_hyp(m, n, row[2]):
                    wrong.append(row[:3])
        assert wrong == []
        # Only the block with the domain's one pole runs the kernel, at each r.
        assert calls == [(2, 1, 0), (2, 1, 1)]
        # The one pole row of the domain, (2, 1, 1).
        row = list(dims._block_rows(2, 1, range(2)))[1]
        assert row[_I_HYP] is None and not row[_AGREE]
        assert row[_HYP_ERROR] == "denominator vanishes at term k=1 before the series terminates"

    def test_each_check_applies_to_swept_rows(self, monkeypatch):
        # D(4, 5) = 35. The patched kernel gives d num / den = 8 + 1/840 at
        # r = 3 (p1 = -2r), one unit of 840 past I_sum = 8, and -1 at r = 2;
        # at every other r it is the true kernel. A bent 3F2 column sends the
        # block to the kernel; the true column does not, so no row moves.
        true_rows = list(dims._block_rows(4, 5, range(6)))
        assert [row[_I_SUM] for row in true_rows[2:4]] == [16, 8] and true_rows[0][3] == 35
        kernel = dims._eval_scaled_3f2
        bad = {-6: (8 * 840 + 1, 840 * 35, 4), -4: (-1, 35, 3)}
        monkeypatch.setattr(
            dims, "_eval_scaled_3f2", lambda p1, *rest: bad.get(p1) or kernel(p1, *rest)
        )
        assert list(dims._block_rows(4, 5, range(6))) == true_rows
        col = dims._hyp_column(4, 5, 5, 35)
        assert col == d_column(4, 5, 5)
        monkeypatch.setattr(dims, "_hyp_column", lambda *args: [col[0] + 1, *col[1:]])
        rows = list(dims._block_rows(4, 5, range(6)))
        assert rows[3][_I_HYP] == 8 + Fraction(1, 840) and type(rows[3][_I_HYP]) is Fraction
        assert not rows[3][_AGREE] and rows[3][_VALID]
        assert rows[2][_I_HYP] == -1 and type(rows[2][_I_HYP]) is int
        assert not rows[2][_AGREE] and not rows[2][_VALID]
        assert [row for r, row in enumerate(rows) if r not in (2, 3)] == [
            row for r, row in enumerate(true_rows) if r not in (2, 3)
        ]
        assert all(true_rows[r][_AGREE] and true_rows[r][_VALID] for r in (2, 3))

    @pytest.mark.parametrize("m, n, deltas", [(12, 9, (1, -1)), (400, 400, (1, -1))])
    def test_the_column_comparison_sees_every_entry(self, monkeypatch, m, n, deltas):
        # The comparison runs before the first row, and a block whose columns
        # differ runs the kernel from r = 0, so the first row shows which way
        # the block went. The true K rows are built once, for every bend.
        col = dims._hyp_column(m, n, n, dim_D(m, n))
        assert len(col) == min(n, m // 2) + 1
        ds = dims._d_levels(m, n, n)
        for builder in _K_ROW_BUILDERS:
            row = getattr(dims, builder)(m, n, ds)
            monkeypatch.setattr(dims, builder, lambda *args, row=row: row)
        calls = recorded_i_hyp(monkeypatch)
        next(dims._block_rows(m, n, range(n + 1)))
        assert calls == []
        for k, delta in itertools.product(range(len(col)), deltas):
            bent = col[:k] + [col[k] + delta] + col[k + 1 :]
            monkeypatch.setattr(dims, "_hyp_column", lambda *args, bent=bent: bent)
            calls.clear()
            next(dims._block_rows(m, n, range(n + 1)))
            assert calls == [(m, n, 0)], (k, delta)

    def test_one_sweep_per_block_and_the_kernel_only_where_columns_differ(self, monkeypatch):
        # The 3F2 column equals the D column wherever it has no pole, so every
        # swept block but (2, 1) takes I_hyp from the D column's sweep.
        blocks = [(m, n) for m in range(1, 61) for n in range(1, 61)] + [(400, 400), (60, 3000)]
        unequal = []
        for m, n in blocks:
            if dims._hyp_column(m, n, n, dim_D(m, n)) != d_column(m, n, n):
                unequal.append((m, n))
        assert unequal == [(2, 1)]
        sweep, sweeps = dims._sweep, []
        monkeypatch.setattr(dims, "_sweep", lambda col, top: sweeps.append(top) or sweep(col, top))
        calls = recorded_i_hyp(monkeypatch)
        for m, n in blocks:
            list(dims._block_rows(m, n, range(n + 1)))
        assert sweeps == [n for _, n in blocks]
        assert calls == [(2, 1, 0), (2, 1, 1)]


# The per-row loop of a table block, as it was before a block whose rows all
# agree was emitted as columns, kept verbatim as an oracle, with its sweep;
# only the digit limit is left out, the column comparison takes the one
# list of ``_hyp_column``, and the kernel's pair comes from ``kernel_pair``.
# It reads every other helper from dims, so a patched helper reaches both,
# but builds its D column itself, ``frozen_d_column`` unless one is given.


def frozen_sweep(col: list[int], top: int) -> Iterator[int]:
    v = [*col, 0]
    for keep in range(top, -1, -1):
        yield v[0]
        v = [*map(add, v, v[1 : keep + 1]), 0]


def frozen_block_rows(
    m: int, n: int, rs: Sequence[int], col: list[int] | None = None
) -> Iterator[tuple]:
    top = rs[-1]
    d = dims.dim_D(m, n)
    ds = dims._d_levels(m, n, top)
    rec_row, red_row = dims._k_recursion_row(m, top, ds), dims._k_reduction_row(m, top, ds)
    col = frozen_d_column(m, n, top) if col is None else col
    sums = None
    same = False
    if 0 < top == len(rs) - 1:
        hyp_col = dims._hyp_column(m, n, top, d)
        sums = frozen_sweep(col, top)
        same = hyp_col == col
    for r in rs:
        k_rec, k_red = rec_row[r], red_row[r]
        if sums is None:
            k_clo, i_sum = dims._column_sums(col, r)
        else:
            i_sum = next(sums)
            k_clo = col[0] - i_sum
        i_sub = d - k_clo
        if same:
            i_hyp, hyp_error, q, rem = i_sum, None, i_sum, 0
        else:
            try:
                num, den = kernel_pair(m, n, r)
            except HyperEvalError as exc:
                # No I_hyp: rem = 1 makes it agree with no route, and q = I_sum
                # adds no bound that I_sum does not already meet.
                i_hyp, hyp_error, q, rem = None, str(exc), i_sum, 1
            else:
                hyp_error = None
                num *= d
                q, rem = divmod(num, den)
                i_hyp = Fraction(num, den) if rem else q
        agree = k_rec == k_red == k_clo and rem == 0 and q == i_sum == i_sub
        # Each K in 0..D (so D >= 0) and each I >= 0.
        valid = (
            0 <= k_rec <= d and 0 <= k_red <= d and 0 <= k_clo <= d
            and i_sum >= 0 and i_sub >= 0 and q >= 0
        )
        yield m, n, r, d, k_rec, k_red, k_clo, i_sum, i_hyp, i_sub, hyp_error, agree, valid


def assert_same_rows(got: list[tuple], want: list[tuple]) -> None:
    """Equal rows, cell by cell of the same type: == alone lets 1 for True through."""
    assert got == want
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]


_K_ROW_BUILDERS = ("_k_recursion_row", "_k_reduction_row")


class TestZippedBlocks:
    """A swept block whose columns are equal and whose K rows agree is zipped.

    Its rows are then built as columns; any other block runs the frozen
    per-row loop, so each row must equal that loop's, cell for cell.
    """

    def test_rows_are_the_frozen_loop(self):
        blocks = [(m, n) for m in range(1, 41) for n in range(1, 41)] + [(400, 400), (60, 3000)]
        for m, n in blocks:
            rs = range(n + 1)
            assert_same_rows(list(dims._block_rows(m, n, rs)), list(frozen_block_rows(m, n, rs)))

    @pytest.mark.parametrize("builder", _K_ROW_BUILDERS)
    def test_a_bent_k_row_moves_its_own_row_alone(self, monkeypatch, builder):
        # Entry k of one K row one too high: the block is not zipped, row k
        # disagrees and every other row is the true one.
        true_rows = list(dims._block_rows(12, 9, range(10)))
        assert all(row[_AGREE] for row in true_rows)
        build = getattr(dims, builder)
        column = ROW_COLUMNS.index("K_recursion" if builder == _K_ROW_BUILDERS[0] else "K_reduction")
        for k in range(10):
            def bent(m, r, ds, k=k):
                row = build(m, r, ds)
                row[k] += 1
                return row

            monkeypatch.setattr(dims, builder, bent)
            rows = list(dims._block_rows(12, 9, range(10)))
            assert_same_rows(rows, list(frozen_block_rows(12, 9, range(10))))
            assert not rows[k][_AGREE] and rows[k][column] == true_rows[k][column] + 1
            assert_same_rows(rows[:k] + rows[k + 1 :], true_rows[:k] + true_rows[k + 1 :])

    def test_every_swept_block_but_the_pole_block_is_zipped(self, monkeypatch):
        # Every block of r = 0..n agrees at every r but (2, 1), whose 3F2 has
        # its pole at r = 1: it alone runs row by row. At n = 1 every other
        # block is all zeros past D and is zipped too.
        zips = []
        monkeypatch.setattr(dims, "zip", lambda *cols: zips.append(1) or zip(*cols), raising=False)
        for m, n in [(m, n) for m in range(1, 41) for n in range(1, 41)] + [(400, 400)]:
            zips.clear()
            rows = list(dims._block_rows(m, n, range(n + 1)))
            zipped = (m, n) != (2, 1)
            assert len(zips) == zipped, (m, n)
            assert all(row[_AGREE] for row in rows) == zipped, (m, n)
        zips.clear()
        list(dims._iter_rows((1, 30), (2, 30), "only_n"))
        assert zips == []  # blocks of one r are never zipped

    @pytest.mark.parametrize("m, n", [(12, 9), (400, 400)])
    def test_a_failed_verdict_builds_single_queries(self, monkeypatch, m, n):
        # Entry k of the sweep, or of the 3F2 column, one too high: the block is
        # not zipped, and each row is the one-r block's row at its r, from one
        # _column_sums and one kernel series, whatever the bent entry held.
        rs = range(n + 1)
        singles = [next(dims._block_rows(m, n, (r,))) for r in rs]
        zips = []
        monkeypatch.setattr(dims, "zip", lambda *cols: zips.append(1) or zip(*cols), raising=False)
        column_sums, sums_calls = dims._column_sums, []
        monkeypatch.setattr(
            dims, "_column_sums", lambda col, r: sums_calls.append(r) or column_sums(col, r)
        )
        hyp_calls = recorded_i_hyp(monkeypatch)
        assert_same_rows(list(dims._block_rows(m, n, rs)), singles)
        assert zips == [1] and sums_calls == hyp_calls == []
        for helper, args in (("_sweep", (d_column(m, n, n), n)),
                             ("_hyp_column", (m, n, n, dim_D(m, n)))):
            true = getattr(dims, helper)
            size = len(true(*args))
            for k in range(size) if size < 20 else (0, 1, size // 2, size - 1):
                def bent(*args, k=k, true=true):
                    entries = true(*args)
                    entries[k] += 1
                    return entries

                monkeypatch.setattr(dims, helper, bent)
                del zips[:], sums_calls[:], hyp_calls[:]
                assert_same_rows(list(dims._block_rows(m, n, rs)), singles)
                assert zips == [], (helper, k)
                assert sums_calls == list(rs) and hyp_calls == [(m, n, r) for r in rs]
            monkeypatch.setattr(dims, helper, true)

    @pytest.mark.parametrize("step", [1, -(10**9)], ids=["K-negative", "I-negative"])
    def test_the_zipped_validity_checks_k_and_i(self, monkeypatch, step):
        # A block made to agree with D column [d, step]: I_sum = d + r step, so
        # K_closed = -r step. Rows r >= 1 have K_closed < 0 (step 1) or I_sum < 0
        # (step -10^9); each is still zipped, and out of range.
        m, n = 12, 9
        d = dim_D(m, n)
        col = [d, step]
        k_row = [-r * step for r in range(n + 1)]
        monkeypatch.setattr(dims, "_d_column", lambda *args: col)
        monkeypatch.setattr(dims, "_hyp_column", lambda *args: col)
        for builder in _K_ROW_BUILDERS:
            monkeypatch.setattr(dims, builder, lambda *args: list(k_row))
        rows = list(dims._block_rows(m, n, range(n + 1)))
        assert_same_rows(rows, list(frozen_block_rows(m, n, range(n + 1), col)))
        assert all(row[_AGREE] for row in rows)
        assert [row[_VALID] for row in rows] == [True] + [False] * n


# The per-query term walk that the D column and its per-r sum replaced, kept
# verbatim as an oracle.


def frozen_alternating_sums(m: int, n: int, r: int) -> tuple[int, int]:
    s = min(r, m // 2)
    M = m - 2 * s
    d = dim_D(M, n)
    c = -binom(r, s) if s % 2 else binom(r, s)  # (-1)^s C(r, s)
    total = 0
    while s:
        total += c * d
        d = d * (n + M - 1) * (n + M) // ((M + 1) * (M + 2))
        c = -c * s // (r - s + 1)
        M += 2
        s -= 1
    return -total, total + d  # at s = 0, c = 1 and d = D(m, n)


# A record as it was built while I_hyp was checked as a Fraction, kept as an
# oracle for the int checks, on the frozen walk. Only the kernel call goes
# through ``kernel_pair``, so a patched kernel reaches both.


def frozen_record(
    query: DimQuery, d: int, rec_row: list[int], red_row: list[int]
) -> DimensionRecord:
    m, n, r = query.m, query.n, query.r
    k_rec = rec_row[r]
    k_red = red_row[r]
    k_clo, i_sum = frozen_alternating_sums(m, n, r)
    i_sub = d - k_clo
    try:
        num, den = kernel_pair(m, n, r)
        i_hyp = Fraction(d * num, den)
        hyp_error = None
    except HyperEvalError as exc:
        i_hyp = None
        hyp_error = str(exc)

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


def block_row(query: DimQuery, d: int) -> tuple:
    """The one row of the query's block, ``compute_record``'s row, with D taken as ``d``.

    Only the block's own D(m, n) is replaced: the D column is the true one,
    D(m, n) at its head included.
    """
    m, n, r = query.m, query.n, query.r
    column = d_column(m, n, r)
    true_dim_D = dims.dim_D
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dims, "dim_D", lambda m_, n_: d if (m_, n_) == (m, n) else true_dim_D(m_, n_))
        patch.setattr(dims, "_d_column", lambda *args: column)
        return next(dims._block_rows(m, n, (r,)))


def assert_same_record(got: DimensionRecord, want: DimensionRecord) -> None:
    # Fraction equals an equal int, so == alone would let an int I_hyp through.
    assert got == want
    assert type(got.I_hyp) is type(want.I_hyp)


_I_HYP = ROW_COLUMNS.index("I_hyp")


def assert_row_is_record(row: tuple, want: DimensionRecord) -> None:
    """A block row against a record, field by field, each of the same type.

    The row keeps an integral I_hyp as the int itself, and any other as the
    record does.
    """
    values = row_of(want)
    assert len(row) == len(values)
    for name, got, value in zip(ROW_COLUMNS, row, values):
        assert got == value, name
        if name != "I_hyp":
            assert type(got) is type(value), name
    i_hyp = want.I_hyp
    integral = i_hyp is not None and i_hyp.denominator == 1
    assert type(row[_I_HYP]) is (int if integral else type(i_hyp))


_NONZERO = st.integers().filter(bool)


class TestRecordMatchesFractionOracle:
    @staticmethod
    def rows(query: DimQuery) -> tuple[int, list[int], list[int]]:
        m, n, r = query.m, query.n, query.r
        ds = DLevels(m, n, r)
        return dim_D(m, n), dims._k_recursion_row(m, r, ds), dims._k_reduction_row(m, r, ds)

    @settings(max_examples=300)
    @given(
        st.one_of(st.integers(1, 60), st.integers(10**12, 10**13)), st.integers(1, 40), st.data()
    )
    # n = 1 holds the series errors; (2, 1, 1) is the first. A huge m with a
    # small r walks r terms.
    @example(m=2, n=1, data=None)
    @example(m=40, n=1, data=None)
    @example(m=10**13, n=3, data=None)
    @example(m=10**13 + 1, n=40, data=None)
    def test_real_queries(self, m, n, data):
        r = n if data is None else data.draw(st.integers(0, n))
        query = DimQuery(m, n, r)
        want = frozen_record(query, *self.rows(query))
        assert_row_is_record(next(dims._block_rows(m, n, (r,))), want)
        assert_same_record(compute_record(query), want)

    @settings(max_examples=60, deadline=None)
    @given(_span(60, 3), _span(40, 5), st.sampled_from(dims.R_POLICIES))
    # n = 1 holds the series errors; a block of every r sizes its column to
    # r = n, past the first r, 0.
    @example(m_range=(1, 4), n_range=(1, 6), r_policy="all")
    @example(m_range=(57, 60), n_range=(1, 1), r_policy="only_n")
    @example(m_range=(57, 60), n_range=(35, 40), r_policy="all")
    @example(m_range=(57, 60), n_range=(35, 40), r_policy="only_n_minus_1")
    def test_table_rows(self, m_range, n_range, r_policy):
        rows = list(dims._iter_rows(m_range, n_range, r_policy))
        points = [
            (m, n, r)
            for m in range(m_range[0], m_range[1] + 1)
            for n in range(n_range[0], n_range[1] + 1)
            for r in dims._R_VALUES[r_policy](n)
        ]
        assert [row[:3] for row in rows] == points
        for row in rows:
            query = DimQuery(*row[:3])
            assert_row_is_record(row, frozen_record(query, *self.rows(query)))

    @settings(max_examples=500)
    @given(
        st.integers(1, 12),
        st.integers(1, 10),
        st.data(),
        st.one_of(st.none(), st.integers()),
        st.integers(-3, 3),
        _NONZERO,
    )
    @example(m=4, n=5, data=None, d=None, delta=1, k=2)  # I_hyp = 8 + 1/2
    @example(m=4, n=5, data=None, d=None, delta=-1, k=-2)  # 8 + 1/2 over den < 0
    @example(m=4, n=5, data=None, d=None, delta=0, k=-7)  # 8 over den < 0
    @example(m=10, n=5, data=None, d=None, delta=1, k=2)  # I = 0, I_hyp = 1/2
    @example(m=10, n=5, data=None, d=None, delta=-1, k=2)  # I_hyp = -1/2
    def test_any_pair_and_any_d(self, m, n, data, d, delta, k):
        # The pair is either drawn freely or set so that I_hyp = I_sum + delta/k,
        # close to the true value on either side; d is the true D(m, n) or any int.
        r = n if data is None else data.draw(st.integers(0, n))
        query = DimQuery(m, n, r)
        true_d, rec_row, red_row = self.rows(query)
        d = true_d if d is None else d
        i_sum = frozen_alternating_sums(m, n, r)[1]
        if d and (data is None or data.draw(st.booleans())):
            pair = (i_sum * k + delta, d * k)
        else:
            pair = (data.draw(st.integers()), data.draw(_NONZERO))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dims, "_eval_scaled_3f2", lambda *args: (*pair, 1))
            want = frozen_record(query, d, rec_row, red_row)
            assert_row_is_record(block_row(query, d), want)
