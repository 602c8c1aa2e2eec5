"""Spans recorded from outside the package, by wrapping its public functions.

A function is traced by replacing the module attribute its callers look up
(``selbergdim.dims.eval_terminating_3f2``, ``selbergdim.cli.table``, ...) with
a wrapper that records one span per call: name, start, end, parent span and
the id of the request (op) it ran for. Spans stay in memory, in flat arrays,
and are summarised and written out when the pass ends. A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from types import ModuleType
from typing import Callable

Hook = Callable[[tuple, object, "BaseException | None", dict], None]


def eval_3f2_terms(args: tuple, result: object, exc: BaseException | None, counters: dict) -> None:
    """Count the terms a returning 3F2 evaluation summed, computed from its parameters.

    The sum stops at the first index where the numerator vanishes, which is
    1 + min(-a) over the non-positive integer upper parameters a.
    """
    if exc is None:
        upper = args[0].upper
        terms = 1 + int(min(-a for a in upper if a.denominator == 1 and a <= 0))
        counters["hyper.eval_3f2.terms"] = counters.get("hyper.eval_3f2.terms", 0) + terms


def classify_violations(args: tuple, result: object, exc: BaseException | None, counters: dict) -> None:
    if exc is None:
        counters["resonance.violations"] = counters.get("resonance.violations", 0) + len(result.violations)


# (module, attribute, span name, hook). Every module attribute through which
# a caller reaches a function is wrapped, so a call is traced whichever
# module makes it.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "table", "dims.table", None),
    ("cli", "compute_record", "dims.compute_record", None),
    ("cli", "classify", "resonance.classify", classify_violations),
    ("cli", "dims_for_config", "resonance.dims_for_config", None),
    ("cli", "config_from_json", "resonance.config_from_json", None),
    ("dims", "compute_record", "dims.compute_record", None),
    ("dims", "dim_D", "dims.D", None),
    ("dims", "dim_K_recursion", "dims.K_recursion", None),
    ("dims", "dim_K_reduction", "dims.K_reduction", None),
    ("dims", "dim_K_closed", "dims.K_closed", None),
    ("dims", "dim_I_sum", "dims.I_sum", None),
    ("dims", "dim_I_hyp", "dims.I_hyp", None),
    ("dims", "dim_I_extremes", "dims.closed_forms", None),
    ("dims", "dim_I_full_resonance_product", "dims.closed_forms", None),
    ("dims", "eval_terminating_3f2", "hyper.eval_3f2", eval_3f2_terms),
    ("dims", "binom", "exactnum.binom", None),
    ("resonance", "classify", "resonance.classify", classify_violations),
    ("resonance", "compute_record", "dims.compute_record", None),
    ("hyper", "eval_terminating_3f2", "hyper.eval_3f2", eval_3f2_terms),
    ("hyper", "pfaff_saalschutz_check", "hyper.pfaff", None),
    ("hyper", "pfaff_saalschutz_rhs", "hyper.pfaff", None),
    ("hyper", "contiguity_residual", "hyper.contiguity", None),
    ("hyper", "pochhammer_identity_residual", "hyper.pochhammer_identity", None),
    ("hyper", "pochhammer", "exactnum.pochhammer", None),
    ("suites", "binom", "exactnum.binom", None),
    ("suites", "hockey_stick_check", "exactnum.hockey_stick_check", None),
    ("exactnum", "binom", "exactnum.binom", None),
    ("exactnum", "pochhammer", "exactnum.pochhammer", None),
)


class Tracer:
    """The spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.current = -1
        self.op_id = 0
        # Errors by "<layer>.errors.<class>" and hook counts; a plain dict so
        # the error path runs no Python-level code (see ``wrap``).
        self.counters: dict[str, int] = {}
        self._last_error: BaseException | None = None
        self._patched: list[tuple[ModuleType, str, object]] = []

    def wrap(self, fn: Callable, span: str, hook: Hook | None = None) -> Callable:
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        error_prefix = span.split(".", 1)[0] + ".errors."
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(self.current)
            name.append(name_id)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            self.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Reached at the interpreter's recursion limit too, so only
                # builtin calls until the span is closed.
                end[idx] = clock()
                start[idx] = t0
                self.current = parent[idx]
                if exc is not self._last_error:
                    self._last_error = exc
                    key = error_prefix + type(exc).__name__
                    counters[key] = counters.get(key, 0) + 1
                if hook is not None:
                    hook(args, None, exc, counters)
                raise
            end[idx] = clock()
            start[idx] = t0
            self.current = parent[idx]
            if hook is not None:
                hook(args, result, None, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module: ModuleType, attr: str, span: str, hook: Hook | None = None) -> bool:
        """Replace ``module.attr`` by its traced wrapper; False if the attribute is gone."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        self.replace(module, attr, self.wrap(original, span, hook))
        return True

    def replace(self, module: ModuleType, attr: str, replacement: Callable) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self, scale: float = 1.0) -> dict:
        """Calls and self time per span name, the times multiplied by ``scale``."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for p, d in zip(self.parent, dur):
            if p >= 0:
                covered[p] += d
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nm, d, c in zip(self.name, dur, covered):
            calls[nm] += 1
            self_s[nm] += d - c
        return {
            span: {"calls": calls[i], "self_s": self_s[i] * scale} for i, span in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw column arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [["start", "d"], ["end", "d"], ["parent", "q"], ["name", "H"], ["op", "q"]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.start, self.end, self.parent, self.name, self.op):
                column.tofile(handle)


def span_overhead(calls: int = 20000) -> float:
    """Seconds one traced call adds to a call of an empty function."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "probe")
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
