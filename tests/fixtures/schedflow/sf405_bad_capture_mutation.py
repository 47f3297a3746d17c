# schedlint-fixture-module: repro/obs/example.py
"""Negative fixture: a capture consumer mutates state from emit context.

The bus hands a capture consumer each record through ``capture``, inside
the emit site: writing a shared global or the shared record shape from
there turns observation into interference (SF405)."""

LAST_SEEN = {}


class ShapeProbe:
    """Remembers each kind's last time — in a module global."""

    def capture(self, shape, time, values):
        LAST_SEEN[shape.kind] = time    # SF405: global write from emit
        shape.fields = ()               # SF405: mutates the shared shape


def attach(bus):
    probe = ShapeProbe()
    bus.subscribe(probe)
