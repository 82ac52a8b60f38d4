"""Tests for the closed table of embedding backends (``repro.api.backends``)."""

import numpy as np
import pytest

from perf.workloads import WORKLOADS
from repro.api import ScenarioSpec, available_backends, create_backend
from repro.core import SoftwareDefinedMemory
from repro.core.config import AccessPathKind
from repro.dlrm import ComputeSpec, InferenceEngine, InMemoryBackend
from repro.dlrm.inference import EmbeddingBackend
from repro.runtime import CampaignSpec
from repro.storage import Technology

from helpers import POOLED_SDM_OPTIONS, small_model


@pytest.fixture
def model():
    return small_model()


class TestBuiltinBackends:
    def test_builtins_registered(self):
        backends = available_backends()
        assert set(backends) == {"dram", "sdm", "tiered"}
        assert all(backends.values())  # every row carries a description

    def test_create_dram(self, model):
        backend = create_backend("dram", model)
        assert isinstance(backend, InMemoryBackend)

    def test_create_sdm_with_options(self, model):
        backend = create_backend(
            "sdm",
            model,
            tiers=[
                {"technology": "dram", "capacity": 0},
                {"technology": "nand", "capacity": "6TB", "devices": 3},
            ],
            row_cache_capacity_bytes=256 * 1024,
            pooled_cache_capacity_bytes=128 * 1024,
        )
        assert isinstance(backend, SoftwareDefinedMemory)
        assert len(backend.devices) == 3

    def test_pooled_sdm_options_build_the_pooled_cache_study(self, model):
        # Section 4.4's study: every request eligible for an 8 MiB pooled
        # cache, the row cache cut to 1 MiB.
        backend = create_backend("sdm", model, **POOLED_SDM_OPTIONS)
        cache = backend.pooled_cache
        assert (cache.capacity_bytes, cache.len_threshold) == (8 * 1024 * 1024, 0)
        assert backend.row_cache.capacity_bytes == 1024 * 1024

    def test_tiered_rejects_a_second_spelling_of_the_tier0_cache(self, model):
        tiers = "dram:256KiB:512KiB,cxl:2MiB:4MiB,nand:1GiB"
        assert create_backend("tiered", model, tiers=tiers).row_cache.capacity_bytes == (
            512 * 1024
        )
        for row_cache in (64 * 1024, 8 * 1024 * 1024 + 1):
            with pytest.raises(ValueError, match="row_cache_capacity_bytes"):
                create_backend("tiered", model, tiers=tiers, row_cache_capacity_bytes=row_cache)

    def test_an_explicit_default_row_cache_beside_a_tier0_cache_is_rejected(self, model):
        # 8 MiB is also the size an unset row cache gets; given beside tier
        # 0's cache it is still a second spelling, not a silent no-op.
        tiers = "dram:0:512KiB,nand:1GiB"
        with pytest.raises(ValueError, match="tier 0 names a cache"):
            create_backend("sdm", model, tiers=tiers, row_cache_capacity_bytes=8 * 1024 * 1024)
        assert create_backend("sdm", model, tiers=tiers).row_cache.capacity_bytes == 512 * 1024
        assert create_backend("sdm", model).row_cache.capacity_bytes == 8 * 1024 * 1024

    def test_tiered_with_the_pooled_cache_on_builds_the_default_cache(self, model):
        backend = create_backend(
            "tiered",
            model,
            tiers="dram:256KiB:512KiB,cxl:2MiB:4MiB,nand:1GiB",
            split_rows=True,
            promotion="all",
            pooled_cache_enabled=True,
        )
        cache = backend.pooled_cache
        assert (cache.capacity_bytes, cache.len_threshold) == (4 * 1024 * 1024, 1)

    def test_dram_rejects_options(self, model):
        with pytest.raises(ValueError, match="takes no options"):
            create_backend("dram", model, row_cache_capacity_bytes=2)

    @pytest.mark.parametrize(
        "option",
        # After a typo, the deleted two-tier geometry fields: ``tiers`` spells it.
        ["not_a_knob", "num_devices", "device_technology", "device_capacity_bytes",
         "dram_budget_bytes", "placement_policy"],
    )
    def test_sdm_rejects_unknown_options(self, model, option):
        with pytest.raises(ValueError, match="unknown SDM options"):
            create_backend("sdm", model, **{option: 1})
        data = {"backend": {"name": "tiered", "options": {option: 2}}}
        with pytest.raises(ValueError, match=rf"unknown SDM options \['{option}'\]"):
            ScenarioSpec.from_dict(data)

    def test_sdm_backend_serves_same_scores_as_dram(self, model):
        compute = ComputeSpec()
        sdm = create_backend(
            "sdm", model, compute,
            row_cache_capacity_bytes=256 * 1024,
            pooled_cache_capacity_bytes=128 * 1024,
        )
        dram = create_backend("dram", model, compute)
        request = {"user_0": [1, 5, 9], "user_1": [3, 4]}
        assert sdm.serve(request, 0.0) > 0.0 and dram.serve(request, 0.0) > 0.0
        pooled_sdm = InferenceEngine(model, compute, sdm).user_pooled(request)
        pooled_dram = InferenceEngine(model, compute, dram).user_pooled(request)
        for table in request:
            np.testing.assert_array_equal(pooled_sdm[table], pooled_dram[table])


class TestOptionCoercion:
    """Loosely-typed option values, as a JSON spec spells them, build the config."""

    def test_enum_fields_accept_strings(self, model):
        config = sdm_config(
            model,
            tiers=[
                {"technology": "dram", "capacity": 4096},
                {"technology": "pcie_3dxp_optane", "capacity": "1GiB"},
            ],
            access_path="mmap",
        )
        assert config.tiers[1].technology is Technology.OPTANE_SSD
        assert config.tiers[0].capacity_bytes == 4096
        assert config.access_path is AccessPathKind.MMAP

    def test_enum_fields_accept_names_case_insensitive(self, model):
        config = sdm_config(model, tiers="dram:0,nand_flash:1GiB", access_path="Direct_IO")
        assert config.tiers[1].technology is Technology.NAND_FLASH
        assert config.access_path is AccessPathKind.DIRECT_IO

    def test_bad_enum_value_lists_choices(self, model):
        with pytest.raises(ValueError, match="not a valid AccessPathKind"):
            create_backend("sdm", model, access_path="floppy_disk")
        with pytest.raises(ValueError, match="unknown memory technology"):
            create_backend("sdm", model, tiers="dram:0,floppy_disk:1GiB")

    def test_defaults_overridden_by_options(self, model):
        # ``tiered`` seeds its own default hierarchy; a ``tiers`` option wins.
        assert len(sdm_config(model, "tiered").tiers) == 3
        assert len(sdm_config(model, "tiered", tiers="dram:0,nand:1GiB").tiers) == 2

    def test_pinned_tables_coerced_to_tuple(self, model):
        assert sdm_config(model, pinned_fm_tables=["user_0"]).pinned_fm_tables == ("user_0",)


def sdm_config(model, name="sdm", **options):
    return create_backend(name, model, **options).config


class TestClosedTable:
    def test_unknown_backend_error_names_known(self, model):
        with pytest.raises(ValueError, match=r"available backends: \['dram', 'sdm', 'tiered'\]"):
            create_backend("no-such-backend", model)
        with pytest.raises(ValueError, match="unknown backend 'pooled'"):
            ScenarioSpec.from_dict({"backend": {"name": "pooled"}})

    def test_a_spec_fails_on_an_option_its_backend_does_not_take(self):
        data = {"backend": {"name": "dram", "options": {"tiers": "dram:0,nand:1GiB"}}}
        with pytest.raises(ValueError, match=r"'dram' backend takes no options, got \['tiers'\]"):
            ScenarioSpec.from_dict(data)
        misspelt = ScenarioSpec().replace("backend.options.row_cach_capacity_bytes", 1)
        with pytest.raises(ValueError, match=r"unknown SDM options \['row_cach_capacity_bytes'\]"):
            ScenarioSpec.from_dict(misspelt.to_dict())

    def test_registered_backend_is_abc_compatible(self, model):
        assert isinstance(create_backend("sdm", model), EmbeddingBackend)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_ledger_workload_parses(self, name):
        workload = WORKLOADS[name]
        CampaignSpec.from_grid(ScenarioSpec.from_dict(workload.spec), workload.grid)
        CampaignSpec.from_grid(ScenarioSpec.from_dict(workload.smoke_spec), workload.smoke_grid)
