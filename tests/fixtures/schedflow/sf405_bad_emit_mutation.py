# schedlint-fixture-module: repro/obs/example.py
"""Negative fixture: a subscriber mutates state from emit context.

Observers run synchronously inside the simulator's emit sites; writing
the record, a shared global, or the scheduling tree from there turns
observation into interference (SF405)."""

TOTALS = {}


class TotalsProbe:
    """Counts records — into a module global, from emit context."""

    def __call__(self, shape, time, values):
        TOTALS[shape.kind] = 1          # SF405: global write from emit
        shape.kind = "seen"             # SF405: mutates the record


def attach(bus):
    probe = TotalsProbe()
    bus.subscribe(probe)
