"""The selbergdim benchmark: run one workload for a while and print its metrics.

    python3 bench/run.py --workload query_stream --seed 1 --seconds 20 --trace 0

Each pass of the workload runs in a fresh interpreter (``worker.py``), so
caches start cold and peak memory is that of one pass. Passes repeat until
``--seconds`` have gone by. With ``--trace 0`` the last line of stdout holds
the end-to-end metrics; with ``--trace 1`` half of the time runs untraced
and half traced, and the last line holds the per-layer metrics. Metric names
and units come from ``BENCHMARK.json``; the lines before the last one give
the environment, how the figures were taken, and anything that went wrong.

The benchmark checks every answer against its own reference (``reference``),
pinned output digests and the counts of the seeded suites, and reports
``correct: false`` on any mismatch. It exits 2 without a result when it
cannot run at all, for instance when ``src/selbergdim`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Set-up probes before each pass; the pass spawn adds one more sample. Taking
# them between passes spreads them over the run, so one busy second of the
# machine cannot move the median.
SETUP_PROBES_PER_PASS = 3
WORKER_TIMEOUT_S = 150
LAYERS = ("exactnum", "hyper", "dims", "resonance", "suites", "cli")


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


def spawn(job: dict | None) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result (None for a set-up probe)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        payload = json.dumps(job).encode() if ready == b"ready\n" else None
        out, err = proc.communicate(payload, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a worker ran longer than {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        tail = err.decode(errors="replace").strip()[-2000:]
        raise BenchError(f"worker exited with {proc.returncode}: {tail}")
    return setup_s, (json.loads(out) if job is not None else None)


def measure(job: dict, budget_s: float, setups: list[float]) -> list[dict]:
    """Whole passes until ``budget_s`` has gone by (at least one)."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < budget_s:
        for _ in range(SETUP_PROBES_PER_PASS):
            setups.append(spawn(None)[0])
        setup_s, result = spawn(job)
        setups.append(setup_s)
        passes.append(result)
    return passes


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "recursion_limit": sys.getrecursionlimit(),
    }


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it: the 11th largest.

    With ten samples or fewer no percentile qualifies, and the maximum is
    given instead.
    """
    xs = sorted(values)
    if len(xs) <= 10:
        return "max", xs[-1]
    return f"p{100 * (len(xs) - 10) / len(xs):.4g}", xs[-11]


def prepare(workload: str, seed: int, work_dir: str) -> list[dict]:
    """The requests of one pass, with config files written and expectations attached."""
    reqs = workloads.requests(workload, seed)
    for req in reqs:
        if req["kind"] == "verify":
            req["expect"] = workloads.expected_counts(req)
        if req["kind"] == "classify":
            path = os.path.join(work_dir, req["argv"][1])
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(req["config"], handle)
            req["argv"][1] = path
    return reqs


def per_request(passes: list[dict]) -> list[dict]:
    """Each op request once, with its median scaled latency over the passes.

    Every pass serves the same requests. A scaled latency is the time the
    request would take on the reference machine (see ``passes.Pace``).
    Probes are left out: they are not ops.
    """
    out = []
    for rows in zip(*(result["requests"] for result in passes)):
        if rows[0]["kind"] == "deep":
            continue
        done = [row["scaled"] for row in rows if row["error"] is None]
        out.append({
            "ops": rows[0]["ops"] - rows[0]["failed"],
            "busy": statistics.median(row["scaled"] for row in rows),
            "latency": statistics.median(done) if done else None,
        })
    return out


def rate(passes: list[dict]) -> float:
    """Ops per second of scaled request time."""
    requests = per_request(passes)
    return sum(r["ops"] for r in requests) / sum(r["busy"] for r in requests)


def raw_rate(result: dict) -> float:
    """Ops per second of one pass as timed, not scaled."""
    rows = [row for row in result["requests"] if row["kind"] != "deep"]
    return sum(row["ops"] - row["failed"] for row in rows) / sum(row["latency"] for row in rows)


def pass_counts(result: dict) -> dict:
    """Exact counts of one pass; every pass of a run must give the same ones."""
    rows = result["requests"]
    counts = {
        "cli.bytes_out": sum(row["bytes"] for row in rows),
        "failed_ops": sum(row["failed"] for row in rows),
        "known_defects": sum(row["defect"] is not None for row in rows),
        "dims.cache_entries": result["cache"]["entries"],
        "output_digests": [row["digest"] for row in rows if row["kind"] != "deep"],
    }
    trace = result["trace"]
    if trace is not None:
        spans, counters = trace["spans"], trace["counters"]
        for span in ("hyper.eval_3f2", "exactnum.binom"):
            counts[f"{span}.calls"] = spans.get(span, {}).get("calls", 0)
        counts["hyper.eval_3f2.terms"] = counters.get("hyper.eval_3f2.terms", 0)
        counts["suites.skipped"] = suite_totals(result)[1]
    return counts


def suite_totals(result: dict) -> tuple[int, int]:
    """(checks, skipped) over every verify answer of a pass."""
    checks = skipped = 0
    for row in result["requests"]:
        for counts in (row["suites"] or {}).values():
            checks += counts["passed"] + counts["failed"]
            skipped += counts["skipped"]
    return checks, skipped


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and the facts behind them."""
    done = [r["latency"] * 1000 for r in per_request(passes) if r["latency"] is not None]
    rows = [row for result in passes for row in result["requests"] if row["kind"] != "deep"]
    attempted = sum(row["ops"] for row in rows)
    failed = sum(row["failed"] for row in rows)
    tail_name, tail_ms = tail_percentile(done) if done else ("max", math.nan)
    metrics = {
        "ops_per_s": rate(passes),
        "latency_p50_ms": statistics.median(done) if done else math.nan,
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in passes),
        "success_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setups),
    }
    facts = {
        "passes": len(passes),
        "latency_samples": len(done),
        "latency_tail_percentile": tail_name,
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "pass_ops_per_s": [round(rate([result]), 3) for result in passes],
        "pass_raw_ops_per_s": [round(raw_rate(result), 3) for result in passes],
        "pass_scale": [round(result["scale"], 4) for result in passes],
        "probe_ms": [round(result["probe_s"] * 1000, 4) for result in passes],
        "cpu_over_wall": [round(result["cpu_s"] / result["wall_s"], 3) for result in passes],
    }
    return metrics, facts


def per_layer(traced: list[dict], untraced_rate: float, names: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and notes on wrapper overhead."""
    first = traced[0]
    spans = set().union(*(r["trace"]["spans"] for r in traced))

    def self_s(span: str) -> float:
        return statistics.median(r["trace"]["spans"].get(span, {}).get("self_s", 0.0) for r in traced)

    def calls(span: str) -> int:
        return first["trace"]["spans"].get(span, {}).get("calls", 0)

    metrics = dict.fromkeys(names, 0)  # what a workload never reaches reads 0
    for span in spans:
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.self_s"] = self_s(span)
    # Error counts by class, 3F2 terms and violations, under their metric names.
    metrics.update(first["trace"]["counters"])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(self_s(s) for s in spans if s.startswith(layer + "."))
    checks, skipped = suite_totals(first)
    cache = first["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics.update({
        "cli.bytes_out": sum(row["bytes"] for row in first["requests"]),
        "dims.cache_entries": cache["entries"],
        "dims.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "hyper.errors": sum(v for k, v in first["trace"]["counters"].items() if k.startswith("hyper.errors.")),
        "suites.checks": checks,
        "suites.skipped": skipped,
        "suites.skip_ratio": skipped / (checks + skipped) if checks + skipped else 0.0,
        "trace.overhead_ratio": rate(traced) / untraced_rate,
    })

    overhead = first["trace"]["span_overhead_s"]
    notes = [f"trace: {first['trace']['span_count']} spans per pass, about {overhead * 1e6:.2f} us each"]
    for span in sorted(spans):
        cost = calls(span) * overhead
        if cost > self_s(span):
            notes.append(
                f"trace: wrapper overhead swamps {span}: {calls(span)} calls cost about {cost:.3f} s "
                f"of tracing against {self_s(span):.3f} s of self time; the caller's self time "
                "carries most of that overhead"
            )
    if first["trace"]["missing"]:
        notes.append(f"trace: targets missing from this package version: {first['trace']['missing']}")
    return metrics, notes


def compare_counts(passes: list[dict]) -> list[str]:
    """Differences between the exact counts of the passes (each pass against the first)."""
    problems = []
    base = pass_counts(passes[0])
    for i, result in enumerate(passes[1:], start=2):
        counts = pass_counts(result)
        for key, value in base.items():
            if key in counts and counts[key] != value:
                problems.append(f"pass {i}: {key} is {counts[key]!r}, pass 1 had {value!r}")
    return problems


def check_digests(workload: str, seed: int, passes: list[dict]) -> list[str]:
    """Compare output digests with the pinned ones, where a request has one."""
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)
    problems = []
    for i, req in enumerate(workloads.requests(workload, seed)):
        want = pinned.get(" ".join(req["argv"]))
        for result in passes:
            if want is not None and result["requests"][i]["digest"] != want:
                problems.append(f"output of `{' '.join(req['argv'])}` differs from its pinned digest")
    return problems


def report(metrics: dict, spec: list[dict]) -> dict:
    """The metrics named in ``spec``, with their units."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def run(args: argparse.Namespace) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "selbergdim", "__init__.py")):
        raise BenchError(f"no package at {os.path.join(ROOT, 'src', 'selbergdim')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    print(f"selbergdim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        requests = prepare(args.workload, args.seed, work_dir)
        setups: list[float] = []
        spawn(None)  # warm-up: the first import in a fresh checkout writes bytecode
        job = {"traced": False, "requests": requests}
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(job, budget, setups)
        traced = []
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.bin")
            traced = measure(dict(job, traced=True, spans_path=spans_path), budget, setups)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    print("env:", json.dumps(env))

    metrics, facts = end_to_end(untraced, setups)
    problems = []
    for result in untraced + traced:
        problems += [row["reason"] for row in result["requests"] if row["reason"]]
    problems += compare_counts(untraced + traced)
    if traced:
        problems += compare_counts(traced)  # the counts only traced passes have
    problems += check_digests(args.workload, args.seed, untraced + traced)
    facts["failures_by_class"] = Counter(
        row["error"] for result in untraced for row in result["requests"]
        if row["kind"] != "deep" and row["error"] is not None
    )
    deep = sum(req["kind"] == "deep" for req in requests)
    if deep:
        defects = Counter(row["defect"] for row in untraced[0]["requests"] if row["defect"])
        facts["known_defect_probes"] = {"per_pass": deep, "by_class": defects}
    print("facts:", json.dumps(facts))
    for m in spec["end_to_end"]:
        print(f"end_to_end {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")

    result_metrics = report(metrics, spec["end_to_end"])
    if args.trace:
        layer, notes = per_layer(traced, metrics["ops_per_s"], [m["name"] for m in spec["per_layer"]])
        for m in spec["per_layer"]:
            print(f"per_layer {m['name']} = {layer[m['name']]:.6g} {m['unit']}")
        for note in notes:
            print(note)
        result_metrics = report(layer, spec["per_layer"])
    for problem in problems[:20]:
        print("CHECK FAILED:", problem)
    if len(problems) > 20:
        print(f"CHECK FAILED: {len(problems) - 20} more")
    return {
        "correct": not problems and facts["failed"] == 0,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": result_metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
