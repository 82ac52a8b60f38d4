"""CampaignSpec expansion and the canonical spec hash the store relies on."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CampaignSpec, ScenarioSpec
from repro.api import BackendChoice, ModelChoice, ServingChoice, TrafficSpec, WorkloadChoice
from repro.runtime import CampaignAxis, point_name, run_campaign
from repro.runtime.campaign import REPLICATE_AXIS
from repro.sim.units import MIB

from helpers import POOLED_SDM_OPTIONS

REPO_ROOT = Path(__file__).resolve().parent.parent


def small_base(**kwargs) -> ScenarioSpec:
    defaults = dict(
        name="camp",
        model=ModelChoice(max_tables_per_group=2, max_rows_per_table=256),
        workload=WorkloadChoice(num_queries=12, num_users=40),
        serving=ServingChoice(concurrency=1, warmup_queries=0),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestCampaignSpec:
    def test_expansion_order_and_shape(self):
        campaign = CampaignSpec.from_grid(
            small_base(),
            {"serving.concurrency": [1, 2], "workload.num_users": [40, 60, 80]},
        )
        assert campaign.shape == (2, 3)
        assert campaign.num_points() == 6
        points = campaign.points()
        assert [point.index for point in points] == list(range(6))
        # Last axis varies fastest.
        assert [dict(p.coords)["workload.num_users"] for p in points[:3]] == [40, 60, 80]
        assert all(dict(p.coords)["serving.concurrency"] == 1 for p in points[:3])
        assert all(dict(p.coords)["serving.concurrency"] == 2 for p in points[3:])

    def test_point_specs_carry_the_assignment(self):
        campaign = CampaignSpec.from_grid(small_base(), {"serving.concurrency": [1, 4]})
        specs = [point.spec for point in campaign.points()]
        assert [spec.serving.concurrency for spec in specs] == [1, 4]

    def test_point_names_encode_campaign_and_coords(self):
        campaign = CampaignSpec.from_grid(
            small_base(), {"backend.name": ["dram", "sdm"]}, name="grid"
        )
        names = [point.spec.name for point in campaign.points()]
        assert names == ["grid[backend.name=dram]", "grid[backend.name=sdm]"]
        assert point_name("grid", [("backend.name", "dram")]) == names[0]

    def test_section_valued_axis(self):
        backends = [
            BackendChoice(name="dram"),
            BackendChoice(name="sdm", options=dict(row_cache_capacity_bytes=1 * MIB)),
        ]
        campaign = CampaignSpec.from_grid(small_base(), {"backend": backends})
        specs = [point.spec for point in campaign.points()]
        assert [spec.backend.name for spec in specs] == ["dram", "sdm"]
        assert specs[1].backend.options["row_cache_capacity_bytes"] == 1 * MIB
        # Labels reduce section values to their name.
        assert campaign.points()[0].labels() == (("backend", "dram"),)

    def test_expansion_is_deterministic(self):
        campaign = CampaignSpec.from_grid(
            small_base(), {"serving.concurrency": [1, 2], "workload.num_users": [40, 60]}
        )
        first = [(p.spec.name, p.spec_hash()) for p in campaign.points()]
        second = [(p.spec.name, p.spec_hash()) for p in campaign.points()]
        assert first == second
        assert len({h for _, h in first}) == len(first)  # all points distinct

    def test_replicates_add_an_axis_with_derived_seeds(self):
        campaign = CampaignSpec.from_grid(
            small_base(), {"serving.concurrency": [1]}, replicates=3
        )
        assert campaign.shape == (1, 3)
        points = campaign.points()
        assert [dict(p.coords)[REPLICATE_AXIS] for p in points] == [0, 1, 2]
        seeds = [p.spec.workload.seed for p in points]
        assert len(set(seeds)) == 3  # each replicate individually seeded
        assert seeds[0] == small_base().workload.seed  # replicate 0 is the base
        assert len({p.spec_hash() for p in points}) == 3

    def test_duplicate_axis_labels_get_distinct_names(self):
        """Two values sharing a display label must not collapse to one point."""
        variants = [
            BackendChoice(name="sdm", options=dict(row_cache_capacity_bytes=1 * MIB)),
            BackendChoice(name="sdm", options=dict(row_cache_capacity_bytes=2 * MIB)),
        ]
        campaign = CampaignSpec.from_grid(small_base(), {"backend": variants}, name="ab")
        points = campaign.points()
        names = [point.spec.name for point in points]
        assert names == ["ab[backend=sdm#0]", "ab[backend=sdm#1]"]
        assert len({point.spec_hash() for point in points}) == 2
        assert [point.labels() for point in points] == [
            (("backend", "sdm#0"),), (("backend", "sdm#1"),)
        ]

    def test_open_loop_only_axis_on_closed_base_is_rejected(self):
        """Same guard as Session.sweep: a dead axis must not run silently."""
        for param, values in (
            ("traffic.queue_depth", [16, 256]),
            ("traffic.offered_qps", [100.0, 200.0]),
        ):
            with pytest.raises(ValueError, match="closed-loop"):
                CampaignSpec.from_grid(small_base(), {param: values})
        # Opening the loop through the grid itself is allowed.
        campaign = CampaignSpec.from_grid(
            small_base(
                traffic=TrafficSpec(mode="open", arrival="poisson", offered_qps=50.0)
            ),
            {"traffic.queue_depth": [16, 256]},
        )
        assert campaign.num_points() == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one value"):
            CampaignSpec(base=small_base(), axes=(("serving.concurrency", []),))
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                base=small_base(),
                axes=(("serving.concurrency", [1]), ("serving.concurrency", [2])),
            )
        with pytest.raises(ValueError, match="unknown spec path"):
            CampaignSpec(base=small_base(), axes=(("nope.field", [1]),))
        with pytest.raises(ValueError, match="replicates"):
            CampaignSpec(base=small_base(), replicates=0)
        with pytest.raises(ValueError, match="implicit replicate axis"):
            CampaignAxis(REPLICATE_AXIS, (1, 2))
        # Bad axis *values* fail at construction, not mid-campaign.
        with pytest.raises(ValueError, match="concurrency must be positive"):
            CampaignSpec(base=small_base(), axes=(("serving.concurrency", [1, 0]),))

    def test_a_misspelt_backend_or_option_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend 'nosuch'"):
            CampaignSpec.from_grid(small_base(), {"backend.name": ["nosuch"]})
        with pytest.raises(ValueError, match="unknown SDM options"):
            CampaignSpec.from_grid(
                small_base(), {"backend.options.row_cach_capacity_bytes": [1, 2]}
            )

    @pytest.mark.parametrize("options_first", [False, True])
    def test_an_options_axis_on_a_dram_base_runs_with_a_name_axis(self, options_first):
        # A point's backend section is checked once every axis has set it,
        # so options that only the name axis makes valid are accepted
        # whichever axis is listed first.
        axes = [
            ("backend.name", ["sdm", "tiered"]),
            ("backend.options.row_cache_capacity_bytes", [64 * 1024, 128 * 1024]),
        ]
        if options_first:
            axes.reverse()
        campaign = CampaignSpec.from_grid(
            small_base(backend=BackendChoice(name="dram")), dict(axes)
        )
        assert {
            (point.spec.backend.name, point.spec.backend.options["row_cache_capacity_bytes"])
            for point in campaign.points()
        } == {(name, size) for name in ("sdm", "tiered") for size in (64 * 1024, 128 * 1024)}
        outcomes = run_campaign(campaign, runtime="serial")
        assert len(outcomes) == 4 and all(outcome.ok for outcome in outcomes)

    def test_a_point_pairing_dram_with_an_option_fails_at_construction(self):
        with pytest.raises(ValueError, match=r"'dram' backend takes no options"):
            CampaignSpec.from_grid(
                small_base(),
                {"backend.name": ["sdm", "dram"], "backend.options.pooled_len_threshold": [4]},
            )

    def test_to_dict_is_json_and_names_every_axis(self):
        campaign = CampaignSpec.from_grid(
            small_base(),
            {
                "backend": [BackendChoice(name="dram"), BackendChoice(name="sdm")],
                "serving.concurrency": [1, 2],
            },
            name="round-trip",
            replicates=2,
        )
        data = json.loads(json.dumps(campaign.to_dict()))  # must be JSON-able
        assert data["name"] == campaign.name
        assert ScenarioSpec.from_dict(data["base"]) == campaign.base
        assert data["replicates"] == 2
        assert [axis["param"] for axis in data["axes"]] == [
            axis.param for axis in campaign.axes
        ]


def _spec_matrix():
    """One spec per built-in backend x traffic mode (satellite: store foundation)."""
    backends = {
        "dram": ("dram", {}),
        "sdm": ("sdm", dict(row_cache_capacity_bytes=1 * MIB, tiers="dram:0,nand:1GiB")),
        "pooled": ("sdm", {**POOLED_SDM_OPTIONS, "pooled_cache_capacity_bytes": 1 * MIB}),
    }
    traffics = {
        "closed": TrafficSpec(mode="closed"),
        "open": TrafficSpec(mode="open", arrival="poisson", offered_qps=200.0, seed=7),
    }
    for label, (backend_name, options) in backends.items():
        for mode, traffic in traffics.items():
            yield ScenarioSpec(
                name=f"hash-{label}-{mode}",
                backend=BackendChoice(name=backend_name, options=options),
                traffic=traffic,
            )


class TestSpecHashStability:
    @pytest.mark.parametrize("spec", _spec_matrix(), ids=lambda spec: spec.name)
    def test_hash_survives_round_trip(self, spec):
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.canonical_json() == spec.canonical_json()
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_hash_is_order_insensitive(self):
        spec = ScenarioSpec(
            backend=BackendChoice(name="sdm", options=dict(split_rows=True, pooled_len_threshold=4))
        )
        reordered = ScenarioSpec(
            backend=BackendChoice(name="sdm", options=dict(pooled_len_threshold=4, split_rows=True))
        )
        assert spec.spec_hash() == reordered.spec_hash()

    def test_hash_distinguishes_specs(self):
        assert (
            ScenarioSpec().spec_hash()
            != ScenarioSpec().replace("serving.concurrency", 4).spec_hash()
        )

    def test_hash_is_stable_across_processes(self):
        """The store's key must not depend on interpreter state (PYTHONHASHSEED)."""
        specs = list(_spec_matrix())
        payload = json.dumps([spec.to_dict() for spec in specs])
        script = (
            "import json, sys\n"
            "from repro import ScenarioSpec\n"
            "specs = [ScenarioSpec.from_dict(d) for d in json.load(sys.stdin)]\n"
            "print(json.dumps([s.spec_hash() for s in specs]))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=payload,
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin:/usr/local/bin",
                "PYTHONHASHSEED": "12345",  # a hash seed the parent doesn't use
            },
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == [spec.spec_hash() for spec in specs]
