"""The verify suites' tally, draw order and counterexample text.

Each suite is made to fail on some of its inputs by patching the identity or
route it checks, and the exact counts and first counterexample are pinned.
The seeded suites keep the real check on the other draws, so the skips, and
with them the LCG draw order, are pinned too.
"""

import dataclasses
from fractions import Fraction

import pytest

from selbergdim import dims, hyper, suites
from selbergdim.suites import DEFAULT_CASES, SUITE_NAMES, SuiteResult, run_suites


def test_pfaff_counterexample(monkeypatch):
    check = hyper.pfaff_saalschutz_check

    def wrong_at_j3(a, b, c, j):
        return check(a, b, c, j) and j != 3

    monkeypatch.setattr(hyper, "pfaff_saalschutz_check", wrong_at_j3)
    assert run_suites("pfaff", 7, 40) == [SuiteResult("pfaff", 32, 8, 12, "a=-2 b=-1 c=6 j=3")]


def test_contiguity_counterexample(monkeypatch):
    residual = hyper.contiguity_residual

    def shifted(a, b, c, j):
        return residual(a, b, c, j) + (Fraction(1, 7) if j == 4 else 0)

    monkeypatch.setattr(hyper, "contiguity_residual", shifted)
    assert run_suites("contiguity", 7, 40) == [
        SuiteResult("contiguity", 37, 3, 9, "a=0 b=4 c=-8 j=4 residual=1/7")
    ]


def test_pochhammer_counterexample(monkeypatch):
    residual = hyper.pochhammer_identity_residual

    def shifted(a, b, k):
        return residual(a, b, k) - (1 if k == 9 else 0)

    monkeypatch.setattr(hyper, "pochhammer_identity_residual", shifted)
    assert run_suites("pochhammer", 7, 40) == [
        SuiteResult("pochhammer", 36, 4, 0, "a=-4 b=-3 k=9 residual=-1")
    ]


def test_hockey_counterexample(monkeypatch):
    check = suites.hockey_stick_check
    monkeypatch.setattr(suites, "hockey_stick_check", lambda r, s: (r, s) != (7, 3) and check(r, s))
    assert run_suites("hockey") == [SuiteResult("hockey", 819, 1, 0, "r=7 s=3")]


def test_routes_counterexample(monkeypatch):
    compute = dims.compute_record

    def off_at_4_6_2(query):
        rec = compute(query)
        if (query.m, query.n, query.r) == (4, 6, 2):
            return dataclasses.replace(rec, K_reduction=rec.K_reduction + 1, routes_agree=False)
        return rec

    monkeypatch.setattr(dims, "compute_record", off_at_4_6_2)
    assert run_suites("routes") == [
        SuiteResult("routes", 503, 1, 0, "m=4 n=6 r=2: D=70 K=(29,30,29) I=(41,41,41)")
    ]


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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite 'everything'"):
        run_suites("everything")
