"""The verify suites' tally, draw order and counterexample text.

Each suite is made to fail on some of its inputs by patching the identity or
route it checks, and the exact counts and first counterexample are pinned.
The seeded suites keep the real check on the other draws, so the skips, and
with them the LCG draw order, are pinned too.
"""

import csv
import io
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ROW_COLUMNS, replace_row
from selbergdim import dims, hyper, suites
from selbergdim.suites import DEFAULT_CASES, SUITE_NAMES, Lcg, SuiteResult, run_suites


def test_pfaff_counterexample(monkeypatch):
    check = hyper._pfaff_scaled

    def wrong_at_j3(L, A, B, C, j):
        return check(L, A, B, C, j) and j != 3

    monkeypatch.setattr(hyper, "_pfaff_scaled", wrong_at_j3)
    assert run_suites("pfaff", 7, 40) == [SuiteResult("pfaff", 32, 8, 12, "a=-2 b=-1 c=6 j=3")]


def test_contiguity_counterexample(monkeypatch):
    residual = hyper._contiguity_scaled

    def shifted(L, A, B, C, j):
        num, den = residual(L, A, B, C, j)
        return (7 * num + den, 7 * den) if j == 4 else (num, den)

    monkeypatch.setattr(hyper, "_contiguity_scaled", shifted)
    assert run_suites("contiguity", 7, 40) == [
        SuiteResult("contiguity", 37, 3, 9, "a=0 b=4 c=-8 j=4 residual=1/7")
    ]


def test_pochhammer_counterexample(monkeypatch):
    residual = hyper._pochhammer_scaled

    def shifted(L, A, B, k):
        num, den = residual(L, A, B, k)
        return (num - den, den) if k == 9 else (num, den)

    monkeypatch.setattr(hyper, "_pochhammer_scaled", shifted)
    assert run_suites("pochhammer", 7, 40) == [
        SuiteResult("pochhammer", 36, 4, 0, "a=-4 b=-3 k=9 residual=-1")
    ]


def test_hockey_counterexample(monkeypatch):
    check = suites.hockey_stick_check
    monkeypatch.setattr(suites, "hockey_stick_check", lambda r, s: (r, s) != (7, 3) and check(r, s))
    assert run_suites("hockey") == [SuiteResult("hockey", 819, 1, 0, "r=7 s=3")]


def _break_routes_at_4_6_2(monkeypatch):
    block_rows = dims._block_rows
    r_at, k_red = map(ROW_COLUMNS.index, ("r", "K_reduction"))

    def off_at_4_6_2(m, n, rs, limit=0):
        for row in block_rows(m, n, rs, limit):
            if (m, n, row[r_at]) == (4, 6, 2):
                # K_reduction one too high, and so the routes disagree.
                row = replace_row(row, K_reduction=row[k_red] + 1, routes_agree=False)
            yield row

    monkeypatch.setattr(dims, "_block_rows", off_at_4_6_2)


ROUTES_COUNTEREXAMPLE = "m=4 n=6 r=2: D=70 K=(29,30,29) I=(41,41,41)"


def test_routes_counterexample(monkeypatch):
    _break_routes_at_4_6_2(monkeypatch)
    assert run_suites("routes") == [SuiteResult("routes", 503, 1, 0, ROUTES_COUNTEREXAMPLE)]


def test_routes_counterexample_pretty(monkeypatch, run_cli):
    _break_routes_at_4_6_2(monkeypatch)
    code, out, err = run_cli("verify", "routes", "--format", "pretty")
    assert (code, err) == (2, "")
    assert out == (
        "routes: passed=503 failed=1 skipped=0\n"
        f"  counterexample: {ROUTES_COUNTEREXAMPLE}\n"
        "1 suite(s) failed\n"
    )


def _i_hyp_without_d(m, n, r, d):
    num, den, _ = dims._eval_scaled_3f2(-2 * r, -m, 1 - m, 2 - n - m, 3 - n - m, 2, 1, 1)
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def _column_sums_one_term_short(col, r):
    total = sum(math.comb(r, s) * c for s, c in zip(range(r), col))
    return col[0] - total, total


@pytest.mark.parametrize(
    "name, mutant, result",
    [
        ("_i_hyp", _i_hyp_without_d,
         SuiteResult("routes", 59, 445, 0, "m=1 n=3 r=0: D=2 K=(0,0,0) I=(2,1,2)")),
        ("_column_sums", _column_sums_one_term_short,
         SuiteResult("routes", 293, 211, 0, "m=1 n=2 r=0: D=1 K=(0,0,1) I=(0,1,0)")),
    ],
    ids=["_i_hyp without d", "_column_sums over range(r)"],
)
def test_routes_runs_the_single_query_routes(monkeypatch, name, mutant, result):
    # An agreeing swept block reads neither the 3F2 kernel nor _column_sums, so
    # the suite also builds each row's single query, which reads both, as
    # `dims` does. The counterexample shows that query's values: its I_hyp of
    # 1 at (1, 3, 0), where the swept row holds I_hyp = I_sum = 2.
    monkeypatch.setattr(dims, name, mutant)
    assert run_suites("routes") == [result]


@pytest.mark.parametrize("name", ["hockey", "routes", "closedforms"])
@pytest.mark.parametrize("seed,cases", [(0, 1), (7, 3), (2**64 + 5, 10_000)])
def test_exhaustive_suites_ignore_seed_and_cases(name, seed, cases):
    assert run_suites(name, seed=seed, cases=cases) == run_suites(name)


def test_routes_counterexample_is_one_quoted_csv_cell(monkeypatch, run_cli):
    # The counterexample holds commas, so its cell is quoted and the failing
    # row keeps as many cells as the header.
    _break_routes_at_4_6_2(monkeypatch)
    code, out, err = run_cli("verify", "routes", "--format", "csv")
    assert (code, err) == (2, "")
    assert out == (
        "suite,passed,failed,skipped,counterexample\n"
        f'routes,503,1,0,"{ROUTES_COUNTEREXAMPLE}"\n'
    )
    assert list(csv.reader(io.StringIO(out))) == [
        ["suite", "passed", "failed", "skipped", "counterexample"],
        ["routes", "503", "1", "0", ROUTES_COUNTEREXAMPLE],
    ]


def test_routes_builds_no_query_or_record(monkeypatch, run_cli):
    # The suite checks the rows of each (m, n) block, as table renders them.
    expected = run_cli("verify", "routes")
    assert expected[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("verify routes built a query, a record or a Fraction")

    for module in (dims, suites):
        for name in ("DimQuery", "DimensionRecord", "Fraction"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run_cli("verify", "routes") == expected


def test_closedforms_counterexample(monkeypatch):
    extremes = dims.dim_I_extremes

    def off_at_5_9(m, n):
        ex = extremes(m, n)
        return ex._replace(at_n=ex.at_n + 1) if (m, n) == (5, 9) else ex

    monkeypatch.setattr(dims, "dim_I_extremes", off_at_5_9)
    assert run_suites("closedforms") == [SuiteResult("closedforms", 55, 1, 0, "m=5 n=9")]


def test_names_and_defaults():
    assert SUITE_NAMES == ("pfaff", "contiguity", "pochhammer", "hockey", "routes", "closedforms")
    assert DEFAULT_CASES == {"pfaff": 500, "contiguity": 200, "pochhammer": 200}
    assert [res.passed + res.failed for res in run_suites("pochhammer", 3)] == [200]


@pytest.mark.parametrize("cases", [0, -3])
def test_cases_below_one_rejected(cases):
    for suite in ("pfaff", "all"):
        with pytest.raises(ValueError, match="cases must be >= 1"):
            run_suites(suite, 7, cases)


@pytest.mark.parametrize(
    "seed,cases,message",
    [
        (0, 2.5, "cases must be an int or None, got 2.5"),
        (0, True, "cases must be an int or None, got True"),
        (0, "3", "cases must be an int or None, got '3'"),
        (1.0, None, "seed must be an int, got 1.0"),
        (False, 3, "seed must be an int, got False"),
        ("7", 3, "seed must be an int, got '7'"),
    ],
)
def test_non_int_seed_or_cases_rejected(seed, cases, message):
    # A float cases never equals passed + failed, so it would never stop.
    for suite in ("pochhammer", "all"):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_suites(suite, seed, cases)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite 'everything'"):
        run_suites("everything")


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    k=st.integers(min_value=0, max_value=4),
    lo=st.integers(min_value=-5, max_value=5),
    width=st.integers(min_value=0, max_value=10),
    n=st.integers(min_value=1, max_value=5),
)
def test_draws_are_k_rational_draws_then_randint(seed, k, lo, width, n):
    rng, raw, rational = Lcg(seed), Lcg(seed), Lcg(seed)
    got = list(itertools.islice(rng.draws(k, lo, lo + width), n))
    want = []
    for _ in range(n):
        # Numerator, then denominator, for each rational; L is the lcm of the
        # denominators as drawn, reduced or not; then the trailing randint.
        pairs = [(raw.randint(-8, 8), raw.randint(1, 4)) for _ in range(k)]
        L = math.lcm(*(q for _, q in pairs))
        want.append((L, *(p * (L // q) for p, q in pairs), raw.randint(lo, lo + width)))
    assert got == want
    assert rng.state == raw.state
    # Over L, each draw's ints are its k rational() draws.
    for L, *scaled, j in got:
        assert [Fraction(p, L) for p in scaled] == [rational.rational() for _ in range(k)]
        assert j == rational.randint(lo, lo + width)


def test_passing_seeded_checks_build_no_fraction(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(hyper, "Fraction", counted)
    monkeypatch.setattr(suites, "Fraction", counted)
    # Their skips are poles in a series, which build nothing either.
    assert all(res.ok for res in run_suites("contiguity", 3) + run_suites("pochhammer", 3))
    assert built == []
    # A vanishing closed-form denominator builds a, b and c for its message.
    (pfaff,) = run_suites("pfaff", 3)
    assert pfaff.ok and pfaff.skipped > 0
    assert 0 < len(built) <= 3 * pfaff.skipped
