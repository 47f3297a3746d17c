"""Chrome-trace / Perfetto export of an observability event stream.

Converts bus records into `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
JSON — the format ``chrome://tracing`` and ``ui.perfetto.dev`` load
natively.  Track layout:

* **pid 1 "threads"** — one track (tid = simulated thread id) per thread;
  execution slices are ``X`` complete events named after the thread, with
  the leaf pathname in ``args``; wakes/blocks/preempts are ``i`` instants
  on the same track.
* **pid 0 "cpus"** — one track per simulated CPU mirroring the slices, so
  per-CPU occupancy is visible at a glance; interrupts land here.
* **pid 2 "virtual-time"** — one ``C`` counter track per scheduling node,
  plotting SFQ virtual time; sanitizer violations are instants here, on
  tid 0.

Timestamps are microseconds (floats) as the format requires; simulation
times are nanoseconds, so sub-microsecond detail survives as fractions.

Typical use::

    builder = ChromeTraceBuilder()
    with BUS.subscription(builder):
        machine.run_until(horizon)
    builder.write("trace.json")      # open in ui.perfetto.dev
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as ev

#: synthetic process ids of the three track groups
PID_CPUS = 0
PID_THREADS = 1
PID_VTIME = 2

#: event kinds rendered as instants on the emitting thread's track;
#: a read-only rendering table, reviewed as SL007-exempt
_INSTANT_KINDS = {  # schedlint: disable=SL007
    ev.WAKE: "wake",
    ev.BLOCK: "block",
    ev.PREEMPT: "preempt",
    ev.RUNNABLE: "runnable",
    ev.SPAWN: "spawn",
    ev.EXIT: "exit",
}

#: the kinds a :class:`ChromeTraceBuilder` draws (dispatch, charge and
#: tag-update carry no geometry; the slice stream is the exact span)
_DRAWN = frozenset((ev.SLICE, ev.INTERRUPT, ev.VTIME_ADVANCE, ev.VIOLATION,
                    ev.FAULT_INJECT, *_INSTANT_KINDS))


def _us(time_ns: int) -> float:
    """Nanoseconds -> Trace Event Format microseconds."""
    return time_ns / 1000.0


class ChromeTraceBuilder:
    """Event-bus capture consumer building a Trace Event Format payload."""

    def __init__(self) -> None:
        self._events: List[Dict[str, Any]] = []
        self._thread_names: Dict[int, str] = {}
        self._cpu_seen: Dict[int, bool] = {}
        self._vtime_tracks: Dict[str, int] = {}
        self.event_count = 0

    # --- subscriber -------------------------------------------------------

    def capture(self, shape: ev.Shape, time: int, values: Tuple[Any, ...]
                ) -> None:
        """Record entry point: translate one record."""
        self.event_count += 1
        kind = shape.kind
        if kind not in _DRAWN:
            return
        data = dict(zip(shape.fields, values))
        if kind == ev.SLICE:
            self._on_slice(time, data)
        elif kind in _INSTANT_KINDS:
            self._instant(_INSTANT_KINDS[kind], time,
                          PID_THREADS, data.get("tid", 0), data)
        elif kind == ev.INTERRUPT:
            self._instant("interrupt", time,
                          PID_CPUS, data.get("cpu", 0), data)
        elif kind == ev.VTIME_ADVANCE:
            self._on_vtime(time, data)
        elif kind == ev.VIOLATION:
            self._instant("SCHEDSAN " + data.get("rule", "violation"),
                          time, PID_VTIME, 0, data)
        else:  # ev.FAULT_INJECT
            self._instant("FAULT " + data.get("fault", "unknown"),
                          time, PID_CPUS, 0, data)

    # --- translation ------------------------------------------------------

    def _remember_thread(self, tid: int, data: Dict[str, Any]) -> None:
        name = data.get("name")
        if name and tid not in self._thread_names:
            self._thread_names[tid] = name

    def _on_slice(self, end_ns: int, data: Dict[str, Any]) -> None:
        tid = data.get("tid", 0)
        cpu = data.get("cpu", 0)
        start_ns = data.get("start", end_ns)
        self._remember_thread(tid, data)
        self._cpu_seen[cpu] = True
        name = self._thread_names.get(tid, "tid-%d" % tid)
        duration = _us(end_ns) - _us(start_ns)
        args = {"node": data.get("node", "/"), "work": data.get("work", 0)}
        self._events.append({
            "name": name, "ph": "X", "ts": _us(start_ns), "dur": duration,
            "pid": PID_THREADS, "tid": tid, "cat": "exec", "args": args,
        })
        self._events.append({
            "name": name, "ph": "X", "ts": _us(start_ns), "dur": duration,
            "pid": PID_CPUS, "tid": cpu, "cat": "cpu", "args": args,
        })

    def _instant(self, name: str, time_ns: int, pid: int, tid: int,
                 data: Dict[str, Any]) -> None:
        self._remember_thread(data.get("tid", -1), data)
        self._events.append({
            "name": name, "ph": "i", "ts": _us(time_ns), "pid": pid,
            "tid": tid, "s": "t", "cat": "sched",
            "args": {k: v for k, v in data.items() if k != "name"},
        })

    def _on_vtime(self, time_ns: int, data: Dict[str, Any]) -> None:
        node = data["node"]
        track = self._vtime_tracks.setdefault(node, len(self._vtime_tracks))
        self._events.append({
            "name": "vtime %s" % node, "ph": "C", "ts": _us(time_ns),
            "pid": PID_VTIME, "tid": track, "cat": "vtime",
            "args": {"v": data["v"]},
        })

    # --- output -----------------------------------------------------------

    def _metadata(self) -> List[Dict[str, Any]]:
        meta: List[Dict[str, Any]] = []

        def name_event(name: str, pid: int, tid: Optional[int] = None,
                       what: str = "thread_name") -> Dict[str, Any]:
            event: Dict[str, Any] = {
                "name": what, "ph": "M", "ts": 0.0, "pid": pid,
                "args": {"name": name},
            }
            event["tid"] = 0 if tid is None else tid
            return event

        meta.append(name_event("cpus", PID_CPUS, what="process_name"))
        meta.append(name_event("threads", PID_THREADS, what="process_name"))
        meta.append(name_event("virtual-time", PID_VTIME,
                               what="process_name"))
        for cpu in sorted(self._cpu_seen):
            meta.append(name_event("cpu%d" % cpu, PID_CPUS, cpu))
        for tid in sorted(self._thread_names):
            meta.append(name_event(self._thread_names[tid], PID_THREADS, tid))
        return meta

    def to_dict(self) -> Dict[str, Any]:
        """The complete Trace Event Format payload (JSON object form)."""
        return {
            "traceEvents": self._metadata() + list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {"source": "repro.obs", "format": "hsfq-sim"},
        }

    def to_json(self, indent: int = 0) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent or None,
                          sort_keys=True)

    def write(self, path: str, indent: int = 0) -> None:
        """Write the trace JSON to ``path`` (open it in ui.perfetto.dev)."""
        with open(path, "w") as handle:
            handle.write(self.to_json(indent))


#: trace-event phases this exporter may produce
_KNOWN_PHASES = ("X", "i", "C", "M")


def validate_chrome_trace(payload: Dict[str, Any]) -> int:
    """Validate a Trace Event Format payload; returns the event count.

    Checks the JSON-object container shape and, for every event, the
    required fields (``ph``/``ts``/``pid``/``tid``, ``dur`` on complete
    events, ``args.name`` on metadata).  Raises :class:`ValueError` on the
    first problem — used by tests, ``make obs-demo``, and the CLI
    ``report`` command before trusting a file.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload missing 'traceEvents' list")
    for index, event in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(event, dict):
            raise ValueError("%s is not an object" % where)
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            raise ValueError("%s has unknown phase %r" % (where, phase))
        for key in ("ts", "pid", "tid"):
            if not isinstance(event.get(key), (int, float)):
                raise ValueError("%s missing numeric %r" % (where, key))
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            raise ValueError("%s complete event missing 'dur'" % where)
        if phase == "M" and "name" not in event.get("args", {}):
            raise ValueError("%s metadata event missing args.name" % where)
    return len(events)


def summarize_chrome_trace(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Aggregate a validated trace: per-track occupancy and instant counts.

    Returns ``{"tracks": [...], "instants": {...}, "counters": [...],
    "events": n}`` where each track row carries the resolved track name,
    slice count, and total busy microseconds — the summary the CLI
    ``report`` command prints.
    """
    validate_chrome_trace(payload)
    names: Dict[Any, str] = {}
    processes: Dict[Any, str] = {}
    tracks: Dict[Any, Dict[str, Any]] = {}
    instants: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    for event in payload["traceEvents"]:
        phase = event["ph"]
        key = (event["pid"], event["tid"])
        if phase == "M":
            if event["name"] == "thread_name":
                names[key] = event["args"]["name"]
            elif event["name"] == "process_name":
                processes[event["pid"]] = event["args"]["name"]
        elif phase == "X":
            track = tracks.setdefault(key, {"slices": 0, "busy_us": 0.0})
            track["slices"] += 1
            track["busy_us"] += event["dur"]
        elif phase == "i":
            instants[event["name"]] = instants.get(event["name"], 0) + 1
        elif phase == "C":
            counters[event["name"]] = counters.get(event["name"], 0) + 1
    rows = []
    for key in sorted(tracks):
        pid, tid = key
        label = "%s/%s" % (processes.get(pid, "pid%s" % pid),
                           names.get(key, "tid%s" % tid))
        rows.append({"track": label, "slices": tracks[key]["slices"],
                     "busy_us": tracks[key]["busy_us"]})
    return {"tracks": rows, "instants": instants, "counters": counters,
            "events": len(payload["traceEvents"])}
