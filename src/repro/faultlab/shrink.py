"""The shrinker: minimize a failing fault schedule to a small reproducer.

Given a failing cell spec, :func:`shrink_spec` searches for a smaller
spec that still fails its oracles:

1. **fault reduction** — greedily try dropping each fault from the
   schedule (re-running the cell each time);
2. **parameter shrinking** — for every surviving fault, repeatedly halve
   each integer parameter the fault class declares ``SHRINKABLE`` toward
   its lower bound, keeping the halved value whenever the failure still
   reproduces.

The search is bounded by ``max_attempts`` cell runs and fully
deterministic (each attempt replays from derived seeds), so the minimal
spec — and the reproducer script :func:`write_reproducer` emits for it —
is byte-identical across runs.  Reproducer scripts are standalone: they
embed the spec JSON and exit 0 when the failure still reproduces, 2 when
it no longer does.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Dict, List, Tuple

from repro.faultlab.campaign import run_cell
from repro.faultlab.faults import FAULTS, ensure_registered

#: default budget of cell re-runs during a shrink
DEFAULT_MAX_ATTEMPTS = 64

_REPRODUCER_TEMPLATE = '''\
#!/usr/bin/env python
"""faultlab reproducer: cell %(cell_id)s (campaign-derived seed %(seed)d).

Replays one fault-injection cell that failed its oracles, minimized by
the faultlab shrinker.  Deterministic: the spec below fully describes
the simulation.  Exit status 0 means the failure reproduced; 2 means it
did not (the bug this script witnessed is gone).

Run with the repository's src/ on PYTHONPATH:

    PYTHONPATH=src python %(filename)s
"""

import json
import sys

SPEC = json.loads("""
%(spec_json)s
""")


def main():
    from repro.faultlab.campaign import replay_spec

    result = replay_spec(SPEC)
    for failure in result["failures"]:
        sys.stderr.write("%%(oracle)s: %%(message)s\\n" %% failure)
    if result["ok"]:
        sys.stderr.write("cell passed: failure no longer reproduces\\n")
        return 2
    sys.stderr.write("failure reproduced (digest %%s)\\n" %% result["digest"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''


def _fails(spec_dict: Dict[str, object]) -> bool:
    return not run_cell(spec_dict)["ok"]


def _shrink_faults(spec: Dict[str, object], budget: List[int]) -> None:
    """Greedily drop faults while the failure still reproduces."""
    faults = list(spec["faults"])  # type: ignore[arg-type]
    index = 0
    while index < len(faults) and budget[0] > 0:
        candidate = dict(spec)
        candidate["faults"] = faults[:index] + faults[index + 1:]
        budget[0] -= 1
        if _fails(candidate):
            faults = candidate["faults"]  # type: ignore[assignment]
        else:
            index += 1
    spec["faults"] = faults


def _shrink_params(spec: Dict[str, object], budget: List[int]) -> None:
    """Halve shrinkable integer params toward their declared floors."""
    fault_specs = spec["faults"]  # type: ignore[assignment]
    for index, fault_spec in enumerate(fault_specs):  # type: ignore[arg-type]
        kind = str(fault_spec["kind"])
        ensure_registered(kind)
        cls = FAULTS.get(kind)
        if cls is None:
            continue
        params = dict(cls.DEFAULTS)
        params.update(fault_spec.get("params", {}))
        for name, floor in sorted(cls.SHRINKABLE.items()):
            while budget[0] > 0:
                value = int(params[name])  # type: ignore[arg-type]
                if value <= floor:
                    break
                halved = max(floor, value // 2)
                candidate = copy.deepcopy(spec)
                cand_fault = candidate["faults"][index]  # type: ignore[index]
                cand_fault.setdefault("params", {})[name] = halved
                budget[0] -= 1
                if _fails(candidate):
                    params[name] = halved
                    fault_spec.setdefault("params", {})[name] = halved
                else:
                    break


def shrink_spec(spec_dict: Dict[str, object],
                max_attempts: int = DEFAULT_MAX_ATTEMPTS
                ) -> Tuple[Dict[str, object], int]:
    """Minimize a failing spec; returns (minimal spec, attempts used).

    The input spec must fail (one verification run is spent checking);
    raises ``ValueError`` if it passes.
    """
    spec = copy.deepcopy(spec_dict)
    if not _fails(spec):
        raise ValueError("spec %r does not fail; nothing to shrink"
                         % (spec.get("id"),))
    budget = [max_attempts]
    _shrink_faults(spec, budget)
    _shrink_params(spec, budget)
    return spec, max_attempts - budget[0]


def reproducer_name(spec_dict: Dict[str, object]) -> str:
    """Deterministic reproducer filename for a spec."""
    slug = str(spec_dict["id"]).replace("/", "_").replace("+", "_")
    return "repro_%s.py" % slug


def record_cell_binlog(spec_dict: Dict[str, object], out_dir: str) -> str:
    """Re-run a failing cell with a binary trace attached; returns its path.

    The binlog lands next to the reproducer script/spec (same stem,
    ``.binlog``) so a failure ships with its full event history — open it
    with ``python -m repro.obs convert``.  Cells are deterministic, so
    the re-run reproduces the failing execution exactly.  If the cell
    crashes mid-run the partially captured (still sealed, still valid)
    trace is kept: the events leading up to the crash are the evidence.
    """
    from repro.obs.binlog import BinaryTraceWriter
    from repro.obs.events import EventBus
    from repro.sim.engine import Simulator

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        reproducer_name(spec_dict)[:-3] + ".binlog")
    with BinaryTraceWriter(path) as writer:
        # A private run bus, subscribed before the cell is built: the
        # cell's tracer joins it, and the spawns at build time are kept.
        engine = Simulator()
        engine.bus = EventBus()
        engine.bus.subscribe(writer)
        try:
            run_cell(spec_dict, engine)
        except Exception:  # noqa: BLE001 - crash traces are the point
            pass
    return path


def write_reproducer(spec_dict: Dict[str, object], out_dir: str) -> str:
    """Write the standalone reproducer script; returns its path.

    Also writes the bare spec next to it as ``.json`` so tooling (and
    ``python -m repro.faultlab replay``) can consume it directly.
    """
    os.makedirs(out_dir, exist_ok=True)
    filename = reproducer_name(spec_dict)
    spec_json = json.dumps(spec_dict, sort_keys=True, indent=1)
    script = _REPRODUCER_TEMPLATE % {
        "cell_id": spec_dict["id"],
        "seed": spec_dict["seed"],
        "filename": filename,
        "spec_json": spec_json,
    }
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(script)
    json_path = path[:-3] + ".json"
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(spec_json + "\n")
    return path
