import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        # C(r, s) = 0 for s > r, so at r = 3 each sum walks s = 3 down to 0
        # only, not m // 2 = 300 terms. The walk starts from one C(r, s) and
        # one C inside dim_D, and takes every later term from the last one.
        calls = []

        def counting(r, s):
            calls.append((r, s))
            return binom(r, s)

        monkeypatch.setattr(dims, "binom", counting)
        # 3 D(598, 3) - 3 D(596, 3) + D(594, 3) = 3*599 - 3*597 + 595.
        assert dim_K_closed(600, 3, 3) == 601
        assert len(calls) == 2
        calls.clear()
        assert dim_I_sum(600, 3, 3) == 0
        assert len(calls) == 2

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
        with pytest.raises(DomainError, match="n must be >= 1"):
            dim_D(2, 0)
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
            ("_k_recursion_row", lambda m, n: [-1] * (n + 1)),
            ("_k_reduction_row", lambda m, n: [36] * (n + 1)),
            ("dim_I_hyp", lambda m, n, r: Fraction(-1, 2)),
        ],
        ids=["dim_K_recursion -1", "dim_K_reduction 36", "dim_I_hyp -1/2"],
    )
    def test_each_validity_bound_is_checked(self, monkeypatch, route, forced):
        # D(4, 5) = 35: one forced value below 0 or a K above D is out of range,
        # even though the other routes stay in it.
        monkeypatch.setattr(dims, route, forced)
        rec = compute_record(DimQuery(4, 5, 3))
        assert not rec.routes_agree
        assert not rec.in_validity_range

    def test_r_zero_record(self):
        rec = compute_record(DimQuery(5, 7, 0))
        assert rec.K_closed == 0
        assert rec.I_sum == rec.D
        assert rec.routes_agree

    def test_n_one_hyp_pole_is_flagged_not_raised(self):
        # At n=1 with even m and r >= m/2 a lower series parameter vanishes
        # too early; the record carries the error instead of aborting.
        rec = compute_record(DimQuery(2, 1, 1))
        assert rec.I_hyp is None
        assert rec.hyp_error is not None
        assert not rec.routes_agree
        assert rec.K is None and rec.I is None
        assert rec.I_sum == rec.I_subtract == -1  # integer routes still filled

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


class TestDeepInputsAndBoundedTables:
    def test_cli_deep_query_answers(self, capsys):
        assert cli.main(["dims", "-m", "3", "-n", "990", "-r", "990", "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        expected = 990 * 989
        assert rec["K_recursion"] == rec["K_reduction"] == rec["K_closed"] == expected
        assert rec["routes_agree"] is True

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

            def counted(m, n):
                calls.append((m, n))
                return build(m, n)

            return counted

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

    @pytest.mark.parametrize("m,n,r", [(1, 5, 3), (6, 4, 2), (9, 5, 5), (40, 30, 12)])
    def test_terms_are_the_signed_products_in_walk_order(self, m, n, r):
        top = min(r, m // 2)
        assert list(dims._alternating_terms(m, n, r)) == [
            (-1) ** s * binom(r, s) * dim_D(m - 2 * s, n) for s in range(top, -1, -1)
        ]
