"""Tests for the ``REPRO_ENGINE`` seam (``repro.core.engine``).

Engine selection happens at import time, so it is exercised through
subprocesses; the in-process tests cover the cache keying and the
hard-failure contract.  Cross-engine behaviour is pinned by the golden
fixtures, which the suite checks under either engine.
"""

import os
import subprocess
import sys

import pytest

from repro.core import engine as engine_mod
from repro.devtools.schedflow import cext

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _run(code, env_engine, **extra_env):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_ENGINE"] = env_engine
    env.update(extra_env)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)


class TestSelection:
    def test_active_engine_matches_ops(self):
        assert engine_mod.active_engine() == engine_mod.ENGINE
        if engine_mod.OPS is None:
            assert engine_mod.ENGINE == "pure"
        else:
            assert engine_mod.ENGINE == "compiled"

    def test_pure_subprocess_reports_pure(self):
        result = _run("from repro.core.engine import ENGINE; print(ENGINE)",
                      "pure")
        assert result.returncode == 0
        assert result.stdout.strip() == b"pure"

    def test_compiled_subprocess_reports_compiled(self):
        result = _run("from repro.core.engine import ENGINE; print(ENGINE)",
                      "compiled")
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.strip() == b"compiled"

    def test_unknown_engine_hard_fails(self):
        result = _run("import repro.core.engine", "turbo-encabulator")
        assert result.returncode != 0
        assert b"EngineError" in result.stderr
        assert b"turbo-encabulator" in result.stderr

    def test_compiled_is_a_hard_request(self, tmp_path):
        """A broken build must fail the import, never fall back to pure."""
        bad_source = tmp_path / "_sfqc.c"
        bad_source.write_text("this is not C\n")
        code = ("import repro.core.engine as e;"
                "e._C_SOURCE = %r;"
                "e.load_compiled_module()" % str(bad_source))
        result = _run(code, "pure",
                      REPRO_ENGINE_CACHE=str(tmp_path / "cache"))
        assert result.returncode != 0
        assert b"EngineError" in result.stderr


class TestBuildCache:
    def test_build_key_is_stable_and_short(self):
        key = engine_mod.build_key()
        assert key == engine_mod.build_key()
        assert len(key) == 20
        int(key, 16)  # hex digest prefix

    def test_build_key_tracks_source(self, tmp_path, monkeypatch):
        original = engine_mod.build_key()
        copy = tmp_path / "_sfqc.c"
        copy.write_bytes(
            open(engine_mod._C_SOURCE, "rb").read() + b"\n/* tweak */\n")
        monkeypatch.setattr(engine_mod, "_C_SOURCE", str(copy))
        assert engine_mod.build_key() != original

    def test_artifact_lands_in_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ENGINE_CACHE", str(tmp_path))
        assert engine_mod._artifact_path().startswith(str(tmp_path))

    def test_compiled_module_exports_all_ops(self):
        if engine_mod.OPS is None:
            pytest.skip("pure engine selected; ops exported only compiled")
        for name in engine_mod._OP_NAMES:
            assert callable(getattr(engine_mod.OPS, name))

    def test_op_names_match_the_c_method_table(self):
        """Read from the source, so the pure leg checks it too."""
        with open(engine_mod._C_SOURCE) as handle:
            module = cext.extract(handle.read(), engine_mod._C_SOURCE)
        exported = [name for name, _symbol, _line in module.method_table]
        assert sorted(exported) == sorted(engine_mod._OP_NAMES)

