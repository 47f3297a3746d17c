"""Benchmark helpers.

Each paper figure whose claim needs full scale, or a tighter bound than
the tier-1 suite asserts, has one bench module that regenerates it
(``pytest benchmarks/ --benchmark-only``); Figure 3's worked example is
checked exactly by ``tests/test_experiments.py`` alone.  The
pytest-benchmark timing measures the cost of regenerating the figure;
each bench also asserts the paper's *shape* so a regression in
behaviour — not just speed — fails the run.  Rendered tables are
printed (visible with ``-s``).
"""

from __future__ import annotations


def run_once(benchmark, func, *args, **kwargs):
    """Run a heavy experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
