"""Engine selection for the SFQ hot path (``REPRO_ENGINE=pure|compiled``).

The scheduler core has two interchangeable engines for its hot functions:
the four chain walks (the per-dispatch tree descent ``pick_leaf`` and the
``charge_chain``/``wake_chain``/``sleep_chain`` ancestor walks), the four
per-queue SFQ operations in :mod:`repro.core.sfq`, and the uniprocessor
machine's burst-completion tick (``machine_tick``, installed by
:class:`repro.cpu.machine.Machine`):

``pure``
    The pure-python reference implementations defined in ``sfq.py``.
    Always available; the behavioural source of truth.

``compiled``
    A hand-written CPython extension (``repro/core/_sfqc.c``) operating
    directly on the arena columns through each queue's ``_cview``
    descriptor.  Built on demand with the platform C compiler — no
    third-party build dependency — and cached under ``build/engine/``
    keyed on a hash of the C source and the interpreter ABI.

Selection is explicit and happens once, at import time: ``sfq.py``
imports this module at the end of its body and rebinds its module-level
hot names to the compiled entry points when ``OPS`` is not ``None``, and
``cpu/machine.py`` reads the tick from ``OPS`` the same way.
There is no per-call dispatch — downstream modules simply import the
names and get whichever engine the process selected.

``REPRO_ENGINE=compiled`` is a hard request: if the extension cannot be
built or loaded the import **fails** rather than silently falling back,
so a CI leg that asks for the compiled engine cannot accidentally test
the pure one.  Unset (or ``pure``) never touches the compiler.

Byte-identity between the engines is a hard contract, pinned two ways:
CI runs the test suite under both engines, so each must reproduce the
committed golden fixtures (event streams, Recorder views, and the
counters of untraced runs, where the compiled tick engages), and the
property suite cross-checks queue observables after random operation
sequences.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
from types import ModuleType
from typing import Any, Optional

__all__ = ["EngineError", "ENGINE", "OPS", "active_engine",
           "build_extension", "load_compiled_module"]


class EngineError(RuntimeError):
    """Raised when ``REPRO_ENGINE=compiled`` cannot be honoured."""


_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sfqc.c")

#: the hot-path entry points every compiled engine must provide
_OP_NAMES = ("pick_leaf", "charge_chain", "wake_chain", "sleep_chain",
             "queue_pick", "queue_charge", "queue_set_runnable",
             "queue_set_blocked", "machine_tick")


def _cache_dir() -> str:
    """Directory for built engine artifacts (override: REPRO_ENGINE_CACHE)."""
    override = os.environ.get("REPRO_ENGINE_CACHE")
    if override:
        return override
    # src/repro/core/engine.py -> repo root is three levels up from core/;
    # `make clean` removes build/.
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(_C_SOURCE))))
    return os.path.join(root, "build", "engine")


def build_key() -> str:
    """Cache key: C source hash x interpreter ABI.

    Any edit to ``_sfqc.c`` or interpreter change produces a new key, so
    stale binaries can never be loaded against newer source — this is
    also what the CI build cache is keyed on.
    """
    digest = hashlib.sha256()
    with open(_C_SOURCE, "rb") as handle:
        digest.update(handle.read())
    digest.update(("\0%s\0%s" % (sys.version,
                                 sysconfig.get_config_var("EXT_SUFFIX"))
                   ).encode("utf-8"))
    return digest.hexdigest()[:20]


def _artifact_path() -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(_cache_dir(), "_sfqc-%s%s" % (build_key(), suffix))


def build_extension(force: bool = False, quiet: bool = True) -> str:
    """Compile ``_sfqc.c``; return the artifact path (cached by key)."""
    if not os.path.exists(_C_SOURCE):
        raise EngineError("compiled engine source missing: %s" % _C_SOURCE)
    artifact = _artifact_path()
    if os.path.exists(artifact) and not force:
        return artifact
    os.makedirs(os.path.dirname(artifact), exist_ok=True)
    cc = sysconfig.get_config_var("CC") or "cc"
    include = sysconfig.get_paths()["include"]
    command = shlex.split(cc) + [
        "-O2", "-fno-strict-aliasing", "-fPIC", "-shared",
        "-I", include, _C_SOURCE, "-o", artifact + ".tmp",
    ]
    try:
        result = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except OSError as exc:
        raise EngineError(
            "cannot run C compiler %r for REPRO_ENGINE=compiled: %s"
            % (cc, exc)) from exc
    output = result.stdout.decode("utf-8", "replace")
    if result.returncode != 0:
        raise EngineError(
            "compiling %s failed (exit %d):\n%s"
            % (_C_SOURCE, result.returncode, output))
    if output.strip() and not quiet:
        sys.stderr.write(output)
    os.replace(artifact + ".tmp", artifact)
    return artifact


def load_compiled_module(force_build: bool = False) -> ModuleType:
    """Build (if needed) and import the ``_sfqc`` extension module."""
    artifact = build_extension(force=force_build)
    spec = importlib.util.spec_from_file_location("repro.core._sfqc", artifact)
    if spec is None or spec.loader is None:
        raise EngineError("cannot load compiled engine from %s" % artifact)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise EngineError(
            "compiled engine failed to import (%s); rebuild with "
            "build_extension(force=True)" % exc) from exc
    missing = [name for name in _OP_NAMES if not hasattr(module, name)]
    if missing:
        raise EngineError(
            "compiled engine is missing entry points: %s" % ", ".join(missing))
    return module


def _resolve() -> Optional[Any]:
    requested = os.environ.get("REPRO_ENGINE", "pure").strip().lower() or "pure"
    if requested == "pure":
        return None
    if requested != "compiled":
        raise EngineError(
            "unknown REPRO_ENGINE %r (expected 'pure' or 'compiled')"
            % requested)
    return load_compiled_module()


#: the compiled-engine module, or ``None`` when running pure
OPS: Optional[Any] = _resolve()

#: which engine this process selected
ENGINE: str = "compiled" if OPS is not None else "pure"


def active_engine() -> str:
    """The engine name this process runs with (``pure`` or ``compiled``)."""
    return ENGINE
