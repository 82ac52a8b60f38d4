"""``tools/reachability.py``: every public name of src/repro is reached.

CI's ``reachability`` step runs the script.  These tests run it on the
repository and on copies of the directories it reads with one definition
or call added, so the rule it enforces -- a public top-level name, method or
property is reached only from src/, benchmarks/, examples/, perf/ or a CI
script, never from its own body or from tests/ -- is pinned where a change
to the script would show.
"""

import importlib.util
import pathlib
import re
import shutil
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = pathlib.Path("tools", "reachability.py")
SCANNED = ("src", "benchmarks", "examples", "perf", ".github", "tools")


def _allowed():
    spec = importlib.util.spec_from_file_location("reachability", REPO_ROOT / SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ALLOWED


def _run(root):
    return subprocess.run(
        [sys.executable, str(SCRIPT)], cwd=root, capture_output=True, text=True, timeout=120
    )


@pytest.fixture
def tree(tmp_path):
    """A copy of the directories the step reads, to add code to."""
    for name in SCANNED:
        shutil.copytree(
            REPO_ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    return tmp_path


def _add_probe(root, body):
    (root / "src" / "repro" / "sim" / "reach_probe.py").write_text(textwrap.dedent(body))


PROBE = """
    class ReachProbe:
        def probe_method(self):
            return self.probe_method

        @property
        def probe_property(self):
            return 1


    def probe_function():
        return probe_function
"""


class TestReachabilityStep:
    def test_the_tree_passes(self):
        run = _run(REPO_ROOT)
        assert run.returncode == 0, run.stdout + run.stderr
        assert "all reached or allowlisted" in run.stdout

    def test_unreached_methods_properties_and_functions_are_listed(self, tree):
        _add_probe(tree, PROBE)
        run = _run(tree)
        assert run.returncode == 1
        listed = set(re.findall(r"nothing reaches public (\S+)", run.stdout))
        # Each definition names itself only in its own body.
        assert listed == {
            "ReachProbe",
            "ReachProbe.probe_method",
            "ReachProbe.probe_property",
            "probe_function",
        }
        assert "src/repro/sim/reach_probe.py: nothing reaches public ReachProbe" in run.stdout

    def test_calls_from_the_scanned_directories_reach(self, tree):
        _add_probe(tree, PROBE)
        (tree / "examples" / "reach_probe_user.py").write_text(
            "from repro.sim.reach_probe import ReachProbe, probe_function\n"
            "probe_function()\n"
            "ReachProbe().probe_method()\n"
            "print(ReachProbe().probe_property)\n"
        )
        run = _run(tree)
        assert run.returncode == 0, run.stdout

    def test_calls_from_tests_do_not_reach(self, tree):
        _add_probe(tree, PROBE)
        (tree / "tests").mkdir()
        (tree / "tests" / "test_reach_probe.py").write_text(
            "from repro.sim.reach_probe import ReachProbe\n"
            "def test_probe():\n"
            "    assert ReachProbe().probe_property == 1\n"
        )
        run = _run(tree)
        assert run.returncode == 1
        assert "nothing reaches public ReachProbe.probe_property" in run.stdout

    def test_getattr_strings_and_perf_hooks_reach(self, tree):
        _add_probe(tree, PROBE)
        (tree / "benchmarks" / "reach_probe_user.py").write_text(
            "from repro.sim.reach_probe import ReachProbe\n"
            "getattr(ReachProbe(), 'probe_method')()\n"
        )
        (tree / "perf" / "reach_probe_hooks.py").write_text(
            "HOOKS = ('repro.sim.reach_probe:probe_function', 'ReachProbe.probe_property')\n"
        )
        run = _run(tree)
        assert run.returncode == 0, run.stdout

    def test_a_ci_script_that_imports_repro_reaches(self, tree):
        _add_probe(tree, PROBE)
        ci = tree / ".github" / "workflows" / "ci.yml"
        ci.write_text(
            ci.read_text()
            + "      - name: probe\n"
            + "        run: |\n"
            + "          python - <<'PY'\n"
            + "          from repro.sim.reach_probe import ReachProbe, probe_function\n"
            + "          probe_function()\n"
            + "          print(ReachProbe().probe_method(), ReachProbe().probe_property)\n"
            + "          PY\n"
        )
        run = _run(tree)
        assert run.returncode == 0, run.stdout

    def test_a_stale_allowlist_entry_fails(self, tree):
        script = tree / SCRIPT
        script.write_text(
            script.read_text().replace(
                "ALLOWED = {", 'ALLOWED = {"no_such_public_name": "a reason",', 1
            )
        )
        run = _run(tree)
        assert run.returncode == 1
        assert "allowlisted no_such_public_name is gone or reached" in run.stdout

    def test_an_allowlisted_name_that_gets_reached_fails(self, tree):
        name = next(iter(_allowed()))
        (tree / "examples" / "reach_probe_user.py").write_text(f"print({name})\n")
        run = _run(tree)
        assert run.returncode == 1
        assert f"allowlisted {name} is gone or reached" in run.stdout


class TestAllowlistReasons:
    @pytest.mark.parametrize("name", sorted(_allowed()))
    def test_reason_names_a_test_that_uses_it_or_a_current_roadmap_item(self, name):
        reason = _allowed()[name]
        paths = re.findall(r"tests/\S+\.py", reason)
        items = re.findall(r"ROADMAP (\d+)\((\w)\)", reason)
        assert paths or items, f"{name}: {reason!r} cites neither a test nor an item"
        for path in paths:
            assert name in (REPO_ROOT / path).read_text(), f"{path} does not use {name}"
        roadmap = (REPO_ROOT / "ROADMAP.md").read_text()
        for number, letter in items:
            # An open item whose heading is not marked done and that has the part.
            heading = rf"^{number}\. \*\*(.*?)(?=^\d+\. \*\*|^## )"
            bodies = re.findall(heading, roadmap, re.M | re.S)
            assert any(
                f"({letter})" in body and "Done" not in body.splitlines()[0] for body in bodies
            ), f"ROADMAP has no open item {number}({letter})"
