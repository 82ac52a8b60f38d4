"""``tools/static_checks.py``: the lint rules, the import layering and the
guard table hold on the tree, and each one fails on its planted offender.

CI's ``static-analysis`` job runs the script.  These tests run it on the
repository and on copies of the directories it reads with one offender
planted, as ``tests/test_ci_reachability.py`` does for reachability, and
call its rules on each rule's ``lint_fixtures/<rule>/bad.py`` and
``good.py``.
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
SCRIPT = pathlib.Path("tools", "static_checks.py")
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def _load():
    spec = importlib.util.spec_from_file_location("static_checks", REPO_ROOT / SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load()
RULE_IDS = [rule.id for rule in checks.RULES]

#: Where a fixture is linted and planted: a module of a substrate package, so
#: the library-only rules and LAYER001 apply to it.
PROBE = "src/repro/cache/static_probe.py"


def _run(root):
    return subprocess.run(
        [sys.executable, str(SCRIPT)], cwd=root, capture_output=True, text=True, timeout=120
    )


def _lint(source, path="src/repro/sim/probe.py", rule_id=None):
    rules = [rule for rule in checks.RULES if rule_id in (None, rule.id)]
    return checks.lint(textwrap.dedent(source), path, rules)


def _fixture(rule_id, which):
    return (FIXTURES / rule_id.lower() / f"{which}.py").read_text(encoding="utf-8")


@pytest.fixture
def tree(tmp_path):
    """A copy of the directories the script reads, to plant offenders in."""
    for name in ("src", "examples", "benchmarks", "tools"):
        shutil.copytree(
            REPO_ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    return tmp_path


def test_the_tree_passes():
    run = _run(REPO_ROOT)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "no findings" in run.stdout


def test_rule_ids_are_sorted_and_unique():
    assert RULE_IDS == sorted(set(RULE_IDS))


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_the_script_fails_on_the_planted_bad_fixture(self, tree, rule_id):
        (tree / PROBE).write_text(_fixture(rule_id, "bad"))
        run = _run(tree)
        assert run.returncode == 1
        assert f"{PROBE}:" in run.stdout
        assert f" {rule_id} " in run.stdout

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_yields_findings_for_its_rule_only(self, rule_id):
        findings = _lint(_fixture(rule_id, "bad"), PROBE, rule_id)
        assert findings, f"{rule_id} found nothing in its bad fixture"
        for finding in findings:
            location, rule, _ = finding.split(" ", 2)
            _, line, column, _ = location.split(":")
            assert rule == rule_id
            assert int(line) >= 1 and int(column) >= 1

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_is_clean(self, rule_id):
        assert _lint(_fixture(rule_id, "good"), PROBE, rule_id) == []


class TestRules:
    def test_findings_are_located_and_sorted(self):
        source = """
            import time
            started = time.time()
            import random
            x = random.random()
        """
        assert _lint(source) == [
            "src/repro/sim/probe.py:3:11: DET001 wall-clock call time.time(); simulated "
            "time must come from sim.clock.SimClock / the Simulator event loop",
            "src/repro/sim/probe.py:5:5: DET002 stdlib random.random() uses the "
            "process-global random stream; derive a generator with sim.rng.make_rng",
        ]

    def test_det001_flags_every_wall_clock_idiom(self):
        findings = "\n".join(_lint(_fixture("DET001", "bad"), rule_id="DET001"))
        for call in ("time.time()", "time.monotonic()", "datetime.datetime.now()", "time.sleep()"):
            assert call in findings

    def test_det001_is_library_only(self):
        source = "import time\nelapsed = time.time()\n"
        assert _lint(source, "examples/demo.py") == []
        assert _lint(source, "benchmarks/bench_demo.py") == []
        assert _lint(source, "src/repro/sim/x.py")

    def test_det001_allows_the_audited_obs_profile_module(self):
        source = "import time\n\ndef wall_seconds():\n    return time.perf_counter()\n"
        assert _lint(source, "src/repro/obs/profile.py") == []

    def test_det001_allow_list_is_exactly_one_module(self):
        # The same wall read anywhere else in the package, the rest of
        # repro.obs included, still fires.
        source = "import time\nstarted = time.perf_counter()\n"
        for path in (
            "src/repro/obs/metrics.py",
            "src/repro/obs/trace.py",
            "src/repro/serving/engine.py",
            "src/repro/core/profile.py",  # same basename, wrong package
        ):
            assert [f.split()[1] for f in _lint(source, path)] == ["DET001"], path

    def test_det001_does_not_flag_wall_seconds_callers(self):
        source = "from repro.obs.profile import wall_seconds\nstarted = wall_seconds()\n"
        assert _lint(source, "src/repro/api/cli.py") == []

    def test_det002_distinguishes_seeded_default_rng(self):
        assert _lint("import numpy as np\nrng = np.random.default_rng(42)\n") == []
        findings = _lint("import numpy as np\nrng = np.random.default_rng()\n")
        assert [f.split()[1] for f in findings] == ["DET002"]

    def test_unit001_reports_mixing_and_magic_sizes(self):
        findings = "\n".join(_lint(_fixture("UNIT001", "bad"), rule_id="UNIT001"))
        assert "mixes decimal" in findings
        assert "1073741824 bound to 'cache_capacity_bytes'" in findings
        assert "magic byte size 4096" in findings
        assert "magic byte size 1048576" in findings  # 1024 * 1024 at the root

    def test_unit001_ignores_unit_multipliers_and_counts(self):
        source = "from repro.sim.units import GB\ncapacity_bytes = 1000 * GB\nbatch_size = 1000\n"
        assert _lint(source, "examples/demo.py") == []

    @pytest.mark.parametrize(
        "source",
        [
            "configure(cache_bytes=4096)",
            "if capacity_bytes > 4096:\n    pass",
            "def configure(*, budget=1 << 30):\n    pass",
            "footprint: int = 1000 * 1000",
            "self.capacity = 65536",
            "sizes_bytes = (4096, -8192)",
        ],
    )
    def test_unit001_finds_a_size_in_every_byte_named_position(self, source):
        findings = _lint(source, "examples/demo.py")
        assert findings and {f.split()[1] for f in findings} == {"UNIT001"}

    def test_unit001_spares_the_module_that_defines_the_units(self):
        source = "KIB = 1024\nMIB_BYTES = 1024 * 1024\n"
        assert _lint(source, "src/repro/sim/units.py") == []
        assert _lint(source, "src/repro/sim/sizes.py")

    def test_frozen001_counts_every_violation_kind(self):
        findings = "\n".join(_lint(_fixture("FROZEN001", "bad"), rule_id="FROZEN001"))
        assert "mutable default for dataclass field Spec.tags" in findings
        assert "mutable default for dataclass field Spec.options" in findings
        assert "assignment to self.name" in findings
        assert "object.__setattr__ outside" in findings

    def test_frozen001_flags_a_mutable_default_given_through_field(self):
        source = """
            from dataclasses import dataclass, field
            @dataclass
            class Spec:
                tags: list = field(default=[])
                ok: list = field(default_factory=list)
        """
        findings = _lint(source, rule_id="FROZEN001")
        assert len(findings) == 1 and "Spec.tags" in findings[0]

    def test_par001_follows_the_fn_keyword(self):
        findings = _lint("def run(pool):\n    pool.submit(fn=lambda: 1)\n", rule_id="PAR001")
        assert len(findings) == 1 and "lambda" in findings[0]

    def test_par001_names_the_closure(self):
        findings = _lint(_fixture("PAR001", "bad"), rule_id="PAR001")
        assert any("'worker'" in f for f in findings)
        assert sum("lambda" in f for f in findings) == 2

    def test_layer001_holds_only_in_the_substrate_packages(self):
        source = "from repro.core import SDMConfig\n"
        assert _lint(source, "src/repro/serving/engine.py") == []
        for package in checks.LAYERS:
            findings = _lint(source, f"src/repro/{package}/x.py")
            assert [f.split()[1] for f in findings] == ["LAYER001"], package

    def test_layer001_flags_the_whole_package(self):
        findings = _lint("import repro\n", "src/repro/storage/x.py")
        assert "repro.storage imports repro;" in findings[0]

    def test_layer001_allows_what_the_package_lists(self):
        assert _lint("from repro.dlrm.embedding import Bags\n", "src/repro/hierarchy/x.py") == []
        findings = _lint("from repro.dlrm.embedding import Bags\n", "src/repro/cache/x.py")
        assert "repro.cache imports repro.dlrm.embedding" in findings[0]

    def test_alias_imports_resolve(self):
        findings = _lint("import numpy as np\ndef f():\n    return np.random.rand()\n")
        assert [f.split()[1] for f in findings] == ["DET002"]

    def test_from_import_resolves_to_the_qualified_name(self):
        findings = _lint("from time import monotonic\nx = monotonic()\n")
        assert [f.split()[1] for f in findings] == ["DET001"]
        assert "time.monotonic" in findings[0]

    def test_a_local_name_shadowing_a_module_does_not_fire(self):
        source = """
            class T:
                def time(self):
                    return 0.0
            def f():
                time = T()
                return time.time()
        """
        assert _lint(source) == []

    def test_a_syntax_error_names_the_file(self):
        with pytest.raises(SyntaxError) as raised:
            _lint("def f(:\n", "src/repro/sim/broken.py")
        assert raised.value.filename == "src/repro/sim/broken.py"

    def test_library_code_is_the_repro_package(self):
        assert checks.is_library("src/repro/sim/clock.py")
        assert checks.is_library("src/repro/runtime/executor.py")
        for path in ("examples/demo.py", "benchmarks/bench_backends.py", "tests/test_sim.py"):
            assert not checks.is_library(path)

    def test_the_walk_skips_hidden_directories_and_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        (tmp_path / "note.txt").write_text("not python\n")
        files = list(checks.python_files(str(tmp_path)))
        assert files == [(tmp_path / "pkg" / "a.py").as_posix()]


#: One offender per row of GUARDS, in its order: valid Python that the row's
#: pattern matches, planted in the row's first path.
OFFENDERS = (
    "run_campaign(campaign, parallel=4)",
    "flat = list(chain.from_iterable(bags))",
    "rows: List[List[int]] = []",
    "rows = list(indices)",
    "hits = cache_contains_batch(keys)",
    "def reset_stats(self):\n    pass",
    "data = rows.tobytes()",
    "class _RowPool:\n    pass",
    "num_partitions = 4",
    "from zlib import crc32",
    "table_name = 't0'",
    "rows = check_indices(indices)",
    "keys = np.asarray(indices, dtype=np.int64)",
    "negative = np.any(idx < 0)",
    "from repro.lint import lint",
)


class TestGuards:
    def test_every_row_has_one_offender_it_matches(self):
        assert len(OFFENDERS) == len(checks.GUARDS)
        for guard, offender in zip(checks.GUARDS, OFFENDERS):
            assert re.search(guard.pattern, offender), guard.change

    @pytest.mark.parametrize(
        "index", range(len(OFFENDERS)), ids=[g.change for g in checks.GUARDS]
    )
    def test_the_script_fails_on_the_planted_offender(self, tree, index):
        guard = checks.GUARDS[index]
        target = tree / guard.paths[0]
        if target.is_dir():
            target = target / "guard_probe.py"
            target.write_text(OFFENDERS[index] + "\n")
        else:
            target.write_text(target.read_text() + "\n" + OFFENDERS[index] + "\n")
        run = _run(tree)
        assert run.returncode == 1
        planted = target.relative_to(tree).as_posix()
        lines = [line for line in run.stdout.splitlines() if line.startswith(planted + ":")]
        assert lines and all("GUARD" in line and guard.change in line for line in lines)

    def test_a_repro_lint_package_fails(self, tree):
        (tree / "src" / "repro" / "lint").mkdir()
        (tree / "src" / "repro" / "lint" / "__init__.py").write_text("")
        run = _run(tree)
        assert run.returncode == 1
        assert "src/repro/lint/__init__.py: GUARD 'repro/lint'" in run.stdout

    def test_a_guarded_path_that_is_gone_fails(self, tree):
        (tree / "src" / "repro" / "dlrm" / "pruning.py").unlink()
        run = _run(tree)
        assert run.returncode == 1
        assert "src/repro/dlrm/pruning.py: guard path is gone" in run.stdout

    def test_a_file_a_row_allows_is_not_flagged(self):
        (guard,) = [g for g in checks.GUARDS if g.allowed_in]
        for path in guard.allowed_in:
            text = (REPO_ROOT / path).read_text()
            assert re.search(guard.pattern, text), f"{path} no longer needs the allowance"
