"""The name of the engine that runs the SFQ hot path.

The scheduler core has one engine: the pure-Python functions in
:mod:`repro.core.sfq`.  This module remains only because the benchmark
(``perfbench/run.py``) imports :func:`active_engine` to record the engine
on its meta line.
"""

from __future__ import annotations

__all__ = ["active_engine"]


def active_engine() -> str:
    """The engine name this process runs with: always ``pure``."""
    return "pure"
