"""Seeded inputs of the three workloads.

Each workload is a list of requests; a request is one ``selbergdim`` command
line plus what the benchmark needs to check its answer. One pass runs the
whole list in a fresh worker process, one request after another (a closed
loop with one client); a run repeats passes until its time is up, so every
pass of a run sees the same requests.

* ``grid_table`` -- ``table --m-range 1..30 --n-range 2..30 --r-policy all``,
  rendered as csv and as json, each render from cold caches. It is the path
  users take to make tables: ``hyper`` does most of the work and the memo
  tables share ``K`` work across records. The grid is fixed by design, so
  this workload does not depend on the seed.
* ``query_stream`` -- independent single requests, each from cold caches as
  one CLI call would be: ``dims`` queries with m up to 200, skewed small, and
  n up to 80 (deep ``K`` routes dominate, ``hyper`` stays small),
  ``classify`` on seeded configurations (``resonance`` then ``dims``), and
  deep probes with m in {3, 4} and n = r >= 1000, where the ``K`` recursion
  overflows the interpreter stack today.
* ``verify_suites`` -- ``verify all --seed S`` plus ten times the default
  ``--cases`` of each seeded suite, as twenty half-size calls with seeds
  S+1..S+20: many short 3F2 series over small random rationals, including
  the pole/skip path.

The ``dims`` points of ``query_stream`` come from an R3 low-discrepancy
sequence with a seeded random shift, plus a small block near the top of the
range. The mix of small and large queries is then almost the same for every
seed, so seeds move the points but hardly the total work or the tail.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference

WORKLOADS = ("grid_table", "query_stream", "verify_suites")

GRID_M = (1, 30)
GRID_N = (2, 30)

STREAM_DIMS = 880
STREAM_TOP = 20
STREAM_CLASSIFY = 100
STREAM_DEEP = 50
STREAM_M_MAX = 200
STREAM_N_MAX = 80
TOP_M, TOP_N, TOP_R_WIDTH = 185, 75, 5
DEEP_R = (1000, 3000)

# Additive recurrence of Roberts' R3 sequence: 1/g, 1/g^2, 1/g^3 for the
# root g of x^4 = x + 1.
_R3 = (0.8191725133961645, 0.6710436067037893, 0.5497004779019703)

VERIFY_CALLS = 20


def _dims_points(rng: random.Random) -> list[tuple[int, int, int]]:
    shift = [rng.random() for _ in range(3)]
    points = []
    for i in range(1, STREAM_DIMS + 1):
        u_m, u_n, u_r = ((i * a + s) % 1.0 for a, s in zip(_R3, shift))
        m = 1 + min(int(STREAM_M_MAX * u_m ** 3), STREAM_M_MAX - 1)
        n = 2 + int((STREAM_N_MAX - 1) * u_n)
        points.append((m, n, min(int(u_r * (n + 1)), n)))
    # The slowest two percent of the stream: without this block the p99
    # would fall where the skewed draw leaves only a few points, and it
    # would jump from seed to seed.
    for _ in range(STREAM_TOP):
        n = rng.randint(TOP_N, STREAM_N_MAX)
        points.append((rng.randint(TOP_M, STREAM_M_MAX), n, rng.randint(n - TOP_R_WIDTH, n)))
    return points


def _config(rng: random.Random) -> dict:
    """A configuration whose lambdas are resonant about half of the time."""
    m = rng.randint(2, 12)
    g = Fraction(rng.randint(1, 12), rng.choice((3, 5, 7, 11, 13)))
    lambdas = []
    for _ in range(rng.randint(2, 8)):
        if rng.random() < 0.5:
            lambdas.append((rng.randint(-4, 4) - g) / 2)
        else:
            lambdas.append(Fraction(rng.randint(-12, 12), rng.randint(2, 17)))
    return {"m": m, "g": reference.fmt(g), "lambdas": [reference.fmt(lam) for lam in lambdas]}


def requests(workload: str, seed: int) -> list[dict]:
    """The requests of one pass; the same seed always gives the same list."""
    rng = random.Random(seed)
    if workload == "grid_table":
        span = [f"{GRID_M[0]}..{GRID_M[1]}", f"{GRID_N[0]}..{GRID_N[1]}"]
        return [
            {"kind": "table", "format": fmt, "m_range": GRID_M, "n_range": GRID_N,
             "argv": ["table", "--m-range", span[0], "--n-range", span[1],
                      "--r-policy", "all", "--format", fmt]}
            for fmt in ("csv", "json")
        ]
    if workload == "query_stream":
        reqs = [
            {"kind": "dims", "query": [m, n, r],
             "argv": ["dims", "-m", str(m), "-n", str(n), "-r", str(r), "--format", "json"]}
            for m, n, r in _dims_points(rng)
        ]
        for i in range(STREAM_DEEP):
            m, n = 3 + i % 2, rng.randint(*DEEP_R)
            reqs.append({"kind": "deep", "query": [m, n, n],
                         "argv": ["dims", "-m", str(m), "-n", str(n), "-r", str(n),
                                  "--format", "json"]})
        for i in range(STREAM_CLASSIFY):
            # The runner writes each config to the file named in argv.
            reqs.append({"kind": "classify", "config": _config(rng),
                         "argv": ["classify", f"config-{i}.json", "--format", "json"]})
        rng.shuffle(reqs)
        return reqs
    if workload == "verify_suites":
        # Twenty half-size calls per seeded suite instead of one call at ten
        # times the cases: the same number of checks, in requests short
        # enough that a run holds several passes. With twenty calls per
        # suite the tail (11th largest of 61) and the median fall in the
        # middle of the pfaff and contiguity calls, not on the edge between
        # two suites, where the seed would decide which suite they measure.
        calls = [("all", seed, None)] + [
            (suite, seed + k, reference.DEFAULT_CASES[suite] // 2)
            for suite in reference.SEEDED_SUITES for k in range(1, VERIFY_CALLS + 1)
        ]
        return [
            {"kind": "verify", "suite": suite, "seed": s, "cases": cases,
             "argv": ["verify", suite, "--seed", str(s)]
             + (["--cases", str(cases)] if cases else []) + ["--format", "json"]}
            for suite, s, cases in calls
        ]
    raise ValueError(f"unknown workload {workload!r}")


def expected_counts(req: dict) -> dict[str, dict]:
    """Reference {suite: {passed, failed, skipped}} for one ``verify`` request."""
    if req["suite"] != "all":
        return {req["suite"]: reference.suite_counts(req["suite"], req["seed"], req["cases"])}
    out = reference.exhaustive_counts()
    for suite in reference.SEEDED_SUITES:
        out[suite] = reference.suite_counts(suite, req["seed"])
    return out
