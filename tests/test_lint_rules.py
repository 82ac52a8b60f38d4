"""Per-rule fixture tests: each rule fires on its bad fixture, stays quiet on
its good one, and the whole repository's lintable surface is clean."""

from pathlib import Path

import pytest

from repro.lint import get_rules, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent

RULE_IDS = ["DET001", "DET002", "FROZEN001", "METRIC001", "PAR001", "SPEC001", "UNIT001"]


def lint_fixture(rule_id, which):
    path = FIXTURES / rule_id.lower() / f"{which}.py"
    source = path.read_text(encoding="utf-8")
    # is_library=True so the determinism rules fire on fixtures too.
    return lint_source(source, str(path), rules=get_rules([rule_id]), is_library=True)


class TestFixturePairs:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_yields_findings_for_its_rule(self, rule_id):
        findings = lint_fixture(rule_id, "bad")
        assert findings, f"{rule_id} found nothing in its bad fixture"
        assert {f.rule for f in findings} == {rule_id}
        for finding in findings:
            assert finding.line >= 1
            assert finding.column >= 1
            assert rule_id in finding.render()

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_is_clean(self, rule_id):
        assert lint_fixture(rule_id, "good") == []


class TestRuleSpecifics:
    def test_det001_flags_every_wall_clock_idiom(self):
        findings = lint_fixture("DET001", "bad")
        messages = "\n".join(f.message for f in findings)
        assert "time.time()" in messages
        assert "time.monotonic()" in messages
        assert "datetime.datetime.now()" in messages
        assert "time.sleep()" in messages

    def test_det001_is_library_only(self):
        source = "import time\nelapsed = time.time()\n"
        assert lint_source(source, "examples/demo.py", is_library=False) == []
        assert lint_source(source, "src/repro/sim/x.py", is_library=True)

    def test_det001_allows_the_audited_obs_profile_module(self):
        # repro/obs/profile.py is the one allow-listed wall-clock module.
        source = "import time\n\ndef wall_seconds():\n    return time.perf_counter()\n"
        assert lint_source(source, "src/repro/obs/profile.py", is_library=True) == []

    def test_det001_allow_list_is_exactly_one_module(self):
        # The same wall read anywhere else in the package — including the
        # rest of repro.obs — still fires.
        source = "import time\nstarted = time.perf_counter()\n"
        for path in (
            "src/repro/obs/metrics.py",
            "src/repro/obs/trace.py",
            "src/repro/serving/engine.py",
            "src/repro/core/profile.py",  # same basename, wrong package
        ):
            findings = lint_source(source, path, is_library=True)
            assert [f.rule for f in findings] == ["DET001"], path

    def test_det001_does_not_flag_wall_seconds_callers(self):
        # Library code may *call* the audited module; only direct time.*
        # reads are findings.
        source = (
            "from repro.obs.profile import wall_seconds\n"
            "started = wall_seconds()\n"
        )
        assert lint_source(source, "src/repro/api/cli.py", is_library=True) == []

    def test_det002_distinguishes_seeded_default_rng(self):
        seeded = "import numpy as np\nrng = np.random.default_rng(42)\n"
        unseeded = "import numpy as np\nrng = np.random.default_rng()\n"
        assert lint_source(seeded, "src/repro/x.py", is_library=True) == []
        findings = lint_source(unseeded, "src/repro/x.py", is_library=True)
        assert [f.rule for f in findings] == ["DET002"]

    def test_unit001_reports_mixing_and_magic_sizes(self):
        findings = lint_fixture("UNIT001", "bad")
        messages = [f.message for f in findings]
        assert any("mixes decimal" in m for m in messages)
        assert any("1073741824" in m and "GIB" in m for m in messages)
        assert any("4096" in m for m in messages)
        assert any("1048576" in m for m in messages)  # 1024 * 1024 at the root

    def test_unit001_ignores_unit_multipliers_and_counts(self):
        source = (
            "from repro.sim.units import GB\n"
            "capacity_bytes = 1000 * GB\n"
            "batch_size = 1000\n"
        )
        assert lint_source(source, "src/repro/x.py") == []

    def test_spec001_catches_the_issue_example(self):
        findings = lint_fixture("SPEC001", "bad")
        snippets = [f.snippet for f in findings]
        assert any("capactiy" in s for s in snippets)
        assert any("tiers.first.capacity" in s for s in snippets)

    def test_metric001_direction_suffix(self):
        findings = lint_fixture("METRIC001", "bad")
        assert any("sideways" in f.message for f in findings)
        assert any("p98" in f.message or "p98" in f.snippet for f in findings)

    def test_metric001_flags_field_names_that_are_not_stored_keys(self):
        findings = lint_fixture("METRIC001", "bad")
        assert any("'latency'" in f.message for f in findings)

    def test_frozen001_counts_every_violation_kind(self):
        findings = lint_fixture("FROZEN001", "bad")
        messages = [f.message for f in findings]
        assert any("mutable default" in m and "tags" in m for m in messages)
        assert any("mutable default" in m and "options" in m for m in messages)
        assert any("assignment to self.name" in m for m in messages)
        assert any("object.__setattr__" in m for m in messages)

    def test_par001_names_the_closure(self):
        findings = lint_fixture("PAR001", "bad")
        messages = [f.message for f in findings]
        assert any("'worker'" in m for m in messages)
        assert sum("lambda" in m for m in messages) == 2


class TestRepositoryIsClean:
    def test_src_examples_benchmarks_have_no_findings(self):
        paths = [str(REPO_ROOT / name) for name in ("src", "examples", "benchmarks")]
        findings = lint_paths([p for p in paths if Path(p).exists()])
        assert findings == [], "\n".join(f.render() for f in findings)
