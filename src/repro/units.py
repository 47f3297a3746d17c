"""Units and conversions used throughout the simulator.

Simulated **time** is an integer number of nanoseconds and **work** is an
integer number of instructions.  Keeping both integral makes the simulation
deterministic (no floating-point drift in the event queue) and makes SFQ tag
arithmetic exact when the exact tag mode is used.

The only floating-point values in the core simulator are derived *metrics*
(throughput, ratios), never state.
"""

from __future__ import annotations

# --- time constants (integer nanoseconds) ---------------------------------

NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000

NS = NANOSECOND
US = MICROSECOND
MS = MILLISECOND


def ns_from_us(us: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(us * MICROSECOND)


def ns_from_ms(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(ms * MILLISECOND)


def ns_from_s(seconds: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(seconds * SECOND)


def s_from_ns(ns: int) -> float:
    """Convert integer nanoseconds to float seconds (for reporting only)."""
    return ns / SECOND


def ms_from_ns(ns: int) -> float:
    """Convert integer nanoseconds to float milliseconds (reporting only)."""
    return ns / MILLISECOND


# --- work <-> time conversions ---------------------------------------------


def work_from_time(duration_ns: int, capacity_ips: int) -> int:
    """Instructions completed in ``duration_ns`` at ``capacity_ips``.

    Rounds down: a partial instruction is not completed work.
    """
    if duration_ns < 0:
        raise ValueError("duration must be non-negative, got %d" % duration_ns)
    return (duration_ns * capacity_ips) // SECOND


def time_from_work(work: int, capacity_ips: int) -> int:
    """Nanoseconds needed to execute ``work`` instructions at ``capacity_ips``.

    Rounds up: the work is only complete once the last instruction retires.
    """
    if work < 0:
        raise ValueError("work must be non-negative, got %d" % work)
    if capacity_ips <= 0:
        raise ValueError("capacity must be positive, got %d" % capacity_ips)
    return -((-work * SECOND) // capacity_ips)
