"""Documentation consistency: the docs reference things that exist."""

import importlib
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def read(name):
    with open(os.path.join(ROOT, name)) as handle:
        return handle.read()


class TestDesignDoc:
    def test_every_bench_target_exists(self):
        text = read("DESIGN.md")
        for target in set(re.findall(r"`(benchmarks/bench_\w+\.py)`", text)):
            assert os.path.exists(os.path.join(ROOT, target)), target

    def test_every_experiment_module_exists(self):
        text = read("DESIGN.md")
        for module in set(re.findall(r"`experiments\.(\w+)`", text)):
            importlib.import_module("repro.experiments." + module)

    def test_every_named_package_imports(self):
        text = read("DESIGN.md")
        for package in set(re.findall(r"`repro\.(\w+)`", text)):
            importlib.import_module("repro." + package)

    def test_paper_identity_check_present(self):
        assert "Goyal" in read("DESIGN.md")


class TestExperimentsDoc:
    def test_covers_every_figure(self):
        text = read("EXPERIMENTS.md")
        for figure in ("Figure 1", "Figure 3", "Figure 5", "Figure 7(a)",
                       "Figure 7(b)", "Figure 8(a)", "Figure 8(b)",
                       "Figure 9", "Figure 10", "Figure 11"):
            assert figure in text, figure

    def test_covers_every_ablation(self):
        text = read("EXPERIMENTS.md")
        for ab in ("AB1", "AB2", "AB3", "AB4", "AB5", "AB6", "AB7", "AB8",
                   "AB9"):
            assert "| %s |" % ab in text, ab


class TestReadme:
    def test_quickstart_code_runs(self):
        """Execute the README's quickstart block verbatim."""
        text = read("README.md")
        match = re.search(r"```python\n(.*?)```", text, re.S)
        assert match, "README has no python quickstart block"
        namespace = {}
        exec(match.group(1), namespace)  # noqa: S102 - our own docs
        worker = namespace["worker"]
        assert worker.stats.work_done > 0

    def test_referenced_files_exist(self):
        text = read("README.md")
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            assert name in text
            assert os.path.exists(os.path.join(ROOT, name))

    def test_examples_table_matches_directory(self):
        text = read("README.md")
        for script in re.findall(r"`(\w+\.py)`", text):
            if script in ("setup.py",):
                continue
            assert os.path.exists(os.path.join(ROOT, "examples", script)), \
                script


class TestRunnerCoverage:
    def test_runner_registry_covers_design_index(self):
        """Every EXP id in DESIGN.md has a runner registration."""
        from repro.experiments.__main__ import EXPERIMENTS
        text = read("DESIGN.md")
        ids = set(re.findall(r"EXP-(F\d+[AB]?|AB\d+)", text))
        for exp_id in ids:
            exp_id = exp_id.lower()
            if exp_id.startswith("f"):
                name = "figure" + exp_id[1:]
            else:
                name = exp_id
            assert name in EXPERIMENTS, name


class TestObservabilityDoc:
    def test_worked_example_output(self, tmp_path, monkeypatch, capsys):
        """``record`` then ``info`` print what the worked example shows,
        up to the ``...`` where the page cuts the per-kind table."""
        from repro.obs.cli import main

        text = read("docs/OBSERVABILITY.md")
        block = re.search(r"### Worked example\n\n```bash\n(.*?)```",
                          text, re.S).group(1)
        monkeypatch.chdir(tmp_path)
        for command in ("record", "info"):
            match = re.search(r"^\$ python -m repro\.obs (%s .*)\n"
                              r"((?:(?!\$ ).+\n)*)" % command, block, re.M)
            shown = match.group(2).splitlines()
            if "  ..." in shown:
                shown = shown[:shown.index("  ...")]
            assert main(match.group(1).split()) == 0
            printed = capsys.readouterr().out.splitlines()
            assert printed[:len(shown)] == shown
