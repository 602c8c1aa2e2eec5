"""Run and check one pass; imported by the worker after its set-up is timed."""

from __future__ import annotations

import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import reference
import tracing

PACKAGE = "selbergdim"


# Machine speed. On a small shared host the speed of the CPU swings by 1.7x
# for seconds to minutes at a time, with CPU time still equal to wall time,
# so raw timings of the same code spread far more than any regression worth
# catching. A fixed pure-Python ``Fraction`` probe, which touches nothing of
# the package, is therefore timed every PROBE_EVERY_S all through a pass, from
# a SIGALRM handler, and each request's latency is rescaled by the mean probe
# time around it. The time spent in the handler is taken out of the latency.
PROBE_TERMS = 150
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.25
# The probe's time on the reference machine; scaled times are the times the
# request would take there. 0.4 ms is about the fastest the probe runs on a
# 2-vCPU Intel Xeon guest with Python 3.11.
REFERENCE_PROBE_S = 0.0004


def probe() -> float:
    """Seconds one run of the fixed probe takes."""
    t0 = time.perf_counter()
    sum(Fraction(1, i) for i in range(1, PROBE_TERMS))
    return time.perf_counter() - t0


class Pace:
    """Probe times sampled over a pass, and the time spent taking them."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        took = probe()
        self.at.append(t0)
        self.took.append(took)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.resume()

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Reference probe time over the mean probe time within PROBE_WINDOW_S of [t0, t1].

        A window that holds fewer than three samples takes the three nearest.
        """
        near = [d for t, d in zip(self.at, self.took) if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
        if len(near) < 3:
            by_distance = sorted(zip(self.at, self.took), key=lambda s: max(t0 - s[0], s[0] - t1))
            near = [d for _, d in by_distance[:3]]
        return REFERENCE_PROBE_S / (sum(near) / len(near))


def package_caches() -> list:
    """Every functools cache reachable from a module attribute of the package.

    Found by scanning, not by name, so caches that later versions add or
    remove are still cleared. Traced wrappers are followed to the cache.
    """
    found = {}
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for value in list(vars(module).values()):
            while not hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                value = value.__wrapped__
            if callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            ):
                found[id(value)] = value
    return list(found.values())


def install(tracer: tracing.Tracer) -> list[str]:
    """Wrap every target; return the targets this version of the package lacks."""
    missing = []
    for mod, attr, span, hook in tracing.TARGETS:
        module = sys.modules.get(f"{PACKAGE}.{mod}")
        if module is None or not tracer.patch(module, attr, span, hook):
            missing.append(f"{mod}.{attr}")
    cli = sys.modules[f"{PACKAGE}.cli"]
    suites = sys.modules[f"{PACKAGE}.suites"]
    run_suites = getattr(cli, "run_suites", None)
    if run_suites is None:
        missing.append("cli.run_suites")
        return missing

    def per_suite(suite, seed=0, cases=None):
        # "all" is run one suite at a time so each suite gets its own span;
        # every suite restarts the LCG from the seed, so the results are
        # the same as those of one call.
        names = suites.SUITE_NAMES if suite == "all" else (suite,)
        results = []
        for name in names:
            results.extend(tracer.wrap(run_suites, f"suites.{name}")(name, seed=seed, cases=cases))
        return results

    per_suite.__wrapped__ = run_suites
    tracer.replace(cli, "run_suites", per_suite)
    return missing


def _serve(requests: list[dict], caches: list, tracer: tracing.Tracer | None, pace: Pace) -> tuple[list, dict]:
    cli = sys.modules[f"{PACKAGE}.cli"]
    real_out, real_err = sys.stdout, sys.stderr
    runs = []
    cache = {"entries": 0, "hits": 0, "misses": 0}
    for op, req in enumerate(requests):
        for fn in caches:
            fn.cache_clear()
        if tracer is not None:
            tracer.op_id = op
        # A deep probe runs up to the recursion limit, where a signal
        # handler would add frames of its own; its time is not used.
        if req["kind"] == "deep":
            pace.pause()
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        code = error = None
        spent0 = pace.spent
        t0 = time.perf_counter()
        try:
            code = cli.main(req["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failing request is an outcome to record, not the end of the pass
            error = type(exc).__name__
        finally:
            t1 = time.perf_counter()
            sys.stdout, sys.stderr = real_out, real_err
        if req["kind"] == "deep":
            pace.resume()
        infos = [fn.cache_info() for fn in caches]
        cache["entries"] = max(cache["entries"], sum(info.currsize for info in infos))
        cache["hits"] += sum(info.hits for info in infos)
        cache["misses"] += sum(info.misses for info in infos)
        runs.append((t0, t1, t1 - t0 - (pace.spent - spent0), code, error, out.getvalue()))
    return runs, cache


def _check_table(req: dict, text: str, expected: list[dict]) -> tuple[int, str | None]:
    """Number of records that differ from the reference, and the first difference."""
    if req["format"] == "csv":
        lines = text.split("\n")
        if lines[0] != ",".join(reference.CSV_COLUMNS) or lines[-1] != "":
            return len(expected), "csv header or final newline differs"
        got = lines[1:-1]
        want = [reference.csv_row(rec) for rec in expected]
    else:
        try:
            got = json.loads(text)
        except ValueError:
            return len(expected), "json table does not parse"
        want = expected
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    failed = len(bad) + abs(len(got) - len(want))
    if not failed:
        return 0, None
    where = bad[0] if bad else min(len(got), len(want))
    return failed, f"{req['format']} record {where} differs from the reference"


def _check(req: dict, code, error: str | None, text: str, grid: list | None) -> dict:
    """Ops, failed ops and the first reason for one request's answer."""
    kind = req["kind"]
    if kind == "deep":
        # Known defect: the K recursion is about r frames deep. Such a probe
        # is no op; a RecursionError is counted by class, any other answer is
        # checked like a dims request.
        if error == "RecursionError":
            return {"ops": 0, "failed": 0, "reason": None, "defect": error, "suites": None}
        row = _check(dict(req, kind="dims"), code, error, text, grid)
        return dict(row, ops=0, failed=0)
    if kind == "table":
        ops = len(grid)
    elif kind == "verify":
        ops = sum(c["passed"] + c["failed"] for c in req["expect"].values())
    else:
        ops = 1
    if error is not None:
        return {"ops": ops, "failed": ops, "reason": f"raised {error}", "defect": None, "suites": None}

    expected_code = 0
    reason = None
    failed = 0
    suites = None
    if kind == "table":
        failed, reason = _check_table(req, text, grid)
    elif kind == "dims":
        if _parse(text) != reference.record(*req["query"]):
            reason = f"dims {req['query']} differs from the reference"
    elif kind == "classify":
        cfg = req["config"]
        want = reference.classify(cfg["m"], Fraction(cfg["g"]), [Fraction(x) for x in cfg["lambdas"]])
        expected_code = 0 if want["assumption_valid"] else 3
        if _parse(text) != want:
            reason = f"classify {cfg} differs from the reference"
    elif kind == "verify":
        doc = _parse(text) or {}
        suites = {
            res["suite"]: {"passed": res["passed"], "failed": res["failed"], "skipped": res["skipped"]}
            for res in doc.get("results", [])
        }
        if suites != req["expect"] or doc.get("all_passed") is not True:
            reason = f"verify {req['suite']} counts {suites} differ from the reference {req['expect']}"
    if code != expected_code:
        reason = reason or f"exit code {code}, expected {expected_code}"
    if reason is not None and not failed:
        failed = ops
    return {"ops": ops, "failed": failed, "reason": reason, "defect": None, "suites": suites}


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def run_pass(job: dict) -> dict:
    """Serve every request of ``job``, then check the answers; see ``worker``."""
    tracer = missing = overhead = None
    if job["traced"]:
        overhead = tracing.span_overhead()
        tracer = tracing.Tracer()
        missing = install(tracer)
    caches = package_caches()
    pace = Pace()
    pace.start()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    runs, cache = _serve(job["requests"], caches, tracer, pace)
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    pace.stop()
    pass_scale = pace.scale(wall0, wall0 + wall_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace = None
    if tracer is not None:
        tracer.restore()
        trace = {
            "spans": tracer.summary(pass_scale),
            "span_count": len(tracer.start),
            "counters": tracer.counters,
            "span_overhead_s": overhead,
            "missing": missing,
        }
        if job.get("spans_path"):
            tracer.write(job["spans_path"])

    grid = None
    rows = []
    for req, (t0, t1, elapsed, code, error, text) in zip(job["requests"], runs):
        if req["kind"] == "table" and grid is None:
            grid = reference.grid(tuple(req["m_range"]), tuple(req["n_range"]))
        row = _check(req, code, error, text, grid)
        row.update(
            kind=req["kind"],
            latency=elapsed,
            scaled=elapsed * pace.scale(t0, t1),
            error=error,
            bytes=len(text.encode()),
            digest=hashlib.sha256(text.encode()).hexdigest(),
        )
        rows.append(row)
    return {
        "requests": rows,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "scale": pass_scale,
        "probe_s": statistics.median(pace.took),
        "cache": cache,
        "trace": trace,
    }
