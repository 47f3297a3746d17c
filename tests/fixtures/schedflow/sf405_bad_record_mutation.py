# schedlint-fixture-module: repro/obs/example.py
"""Negative fixture: a plain callable subscriber mutates its record.

The bus calls a subscriber that has no ``capture`` method with the
record as emitted, ``(shape, time, values)``: every parameter is the
record, shared with every other subscriber, so writing any of them
from emit context is interference (SF405)."""


def probe(shape, time, values):
    values[0] = 0                       # SF405: mutates the record


def attach(bus):
    bus.subscribe(probe)
