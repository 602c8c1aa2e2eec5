"""One pass of a workload in a fresh interpreter.

The runner starts this script, waits for the ``ready`` line (the time up to
it is the set-up time: interpreter start plus ``import selbergdim``), then
writes the pass as JSON to stdin. The worker runs each request through
``selbergdim.cli.main`` with every package cache cleared first, checks the
answers against ``reference`` after the timed work, and writes one JSON
result to stdout. A ``null`` pass only measures set-up.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    sys.path.insert(0, SRC)
    import selbergdim.cli  # noqa: F401  (this import is the set-up being timed)

    if not os.path.abspath(selbergdim.cli.__file__).startswith(SRC + os.sep):
        print(f"imported selbergdim from {selbergdim.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import json

    job = json.loads(sys.stdin.read())
    if job is None:
        return 0
    from passes import run_pass

    sys.stdout.write(json.dumps(run_pass(job)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
