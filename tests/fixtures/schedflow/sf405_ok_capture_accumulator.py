# schedlint-fixture-module: repro/obs/example.py
"""Positive fixture: the capture consumer folds into its own accumulator
and treats the record it is handed as read-only."""


class KindCounter:
    """Counts records per kind into per-instance state."""

    def __init__(self):
        self.counts = {}

    def capture(self, shape, time, values):
        self.counts[shape.kind] = self.counts.get(shape.kind, 0) + 1


def attach(bus):
    counter = KindCounter()
    bus.subscribe(counter)
    return counter
