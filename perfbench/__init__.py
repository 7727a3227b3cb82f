"""perfbench — the repo's benchmark.

Seven workloads, two clocks (host wall time and simulated time),
failures counted against attempts, and every number split by layer.
``BENCHMARK.json`` at the repo root is the registry of workload and
metric names; this package measures them from *outside* ``src/`` by
timing calls into each layer's public functions.

Entry points::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m perfbench [--seed N] [--workload NAME] [--trace]
    PYTHONPATH=src python -m perfbench --selfcheck
    PYTHONPATH=src python -m perfbench compare A.json B.json

See ``perfbench/README.md`` for what each workload stresses and why.
"""

import os

#: The perfbench package directory and the checkout it sits in.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def require_repo():
    """Put ``src/`` on ``sys.path``; exit non-zero when it is absent.

    A directory holding only ``BENCHMARK.json`` and ``perfbench/`` has
    nothing to measure: fail before printing any result.
    """
    import sys
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            "perfbench: %s has no src/repro package to measure\n" % ROOT)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
