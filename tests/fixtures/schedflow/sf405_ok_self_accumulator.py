# schedlint-fixture-module: repro/obs/example.py
"""Positive fixture: the subscriber folds into its own accumulator and
treats the emitted record as read-only."""


class CountProbe:
    """Counts records into per-instance state; the record is untouched."""

    def __init__(self):
        self.seen = 0

    def __call__(self, shape, time, values):
        self.seen += 1


def attach(bus):
    probe = CountProbe()
    bus.subscribe(probe)
    return probe
