"""Tests for the pluggable embedding-backend registry."""

import numpy as np
import pytest

from repro.api import (
    BackendRegistryError,
    DuplicateBackendError,
    UnknownBackendError,
    available_backends,
    backend_registered,
    create_backend,
    register_backend,
    sdm_config_from_options,
    unregister_backend,
)
from repro.core import SoftwareDefinedMemory
from repro.core.config import AccessPathKind
from repro.dlrm import ComputeSpec, InferenceEngine, InMemoryBackend
from repro.dlrm.inference import EmbeddingBackend
from repro.storage import Technology

from helpers import small_model


@pytest.fixture
def model():
    return small_model()


class TestBuiltinBackends:
    def test_builtins_registered(self):
        backends = available_backends()
        for name in ("dram", "sdm", "pooled"):
            assert name in backends
            assert backends[name]  # every built-in carries a description
            assert backend_registered(name)

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

    def test_create_pooled_every_request_eligible(self, model):
        backend = create_backend("pooled", model)
        assert isinstance(backend, SoftwareDefinedMemory)
        assert backend.pooled_cache is not None
        assert backend.config.pooled_len_threshold == 0

    def test_pooled_row_cache_default_gives_way_to_a_tier0_cache(self, model):
        # The pooled backend's 1 MiB row cache is its own default, not a user
        # setting, so a tier list that sizes tier 0's cache is not a clash.
        assert create_backend("pooled", model).row_cache.capacity_bytes == 1024 * 1024
        tiers = "dram:0:512KiB,nand:1GiB"
        backend = create_backend("pooled", model, tiers=tiers)
        assert backend.row_cache.capacity_bytes == 512 * 1024
        with pytest.raises(ValueError, match="tier 0 names a cache"):
            create_backend("pooled", model, tiers=tiers, row_cache_capacity_bytes=64 * 1024)

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

    def test_pooled_rejects_disabling_its_cache(self, model):
        with pytest.raises(ValueError, match="pooled_cache_enabled"):
            create_backend("pooled", model, pooled_cache_enabled=False)

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
        with pytest.raises(ValueError, match="unknown SDM options"):
            sdm_config_from_options({option: 2})

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
    def test_enum_fields_accept_strings(self):
        config = sdm_config_from_options(
            {
                "tiers": [
                    {"technology": "dram", "capacity": 4096},
                    {"technology": "pcie_3dxp_optane", "capacity": "1GiB"},
                ],
                "access_path": "mmap",
            }
        )
        assert config.tiers[1].technology is Technology.OPTANE_SSD
        assert config.tiers[0].capacity_bytes == 4096
        assert config.access_path is AccessPathKind.MMAP

    def test_enum_fields_accept_names_case_insensitive(self):
        config = sdm_config_from_options(
            {"tiers": "dram:0,nand_flash:1GiB", "access_path": "Direct_IO"}
        )
        assert config.tiers[1].technology is Technology.NAND_FLASH
        assert config.access_path is AccessPathKind.DIRECT_IO

    def test_bad_enum_value_lists_choices(self):
        with pytest.raises(ValueError, match="not a valid AccessPathKind"):
            sdm_config_from_options({"access_path": "floppy_disk"})
        with pytest.raises(ValueError, match="unknown memory technology"):
            sdm_config_from_options({"tiers": "dram:0,floppy_disk:1GiB"})

    def test_defaults_overridden_by_options(self):
        config = sdm_config_from_options(
            {"row_cache_capacity_bytes": 4096}, row_cache_capacity_bytes=1024, seed=7
        )
        assert config.row_cache_capacity_bytes == 4096
        assert config.seed == 7

    def test_pinned_tables_coerced_to_tuple(self):
        config = sdm_config_from_options({"pinned_fm_tables": ["user_0"]})
        assert config.pinned_fm_tables == ("user_0",)


class TestRegistration:
    def test_unknown_backend_error_names_known(self, model):
        with pytest.raises(UnknownBackendError, match="sdm"):
            create_backend("no-such-backend", model)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DuplicateBackendError, match="already registered"):

            @register_backend("sdm")
            def clash(model, compute, **options):  # pragma: no cover
                raise AssertionError("never called")

    def test_custom_backend_plugs_in(self, model):
        @register_backend("custom-dram", description="test plug-in")
        def build(inner_model, compute, **options):
            return InMemoryBackend(inner_model.tables, compute)

        try:
            assert "custom-dram" in available_backends()
            backend = create_backend("custom-dram", model)
            assert isinstance(backend, InMemoryBackend)
        finally:
            unregister_backend("custom-dram")
        assert not backend_registered("custom-dram")

    def test_overwrite_replaces_factory(self, model):
        @register_backend("victim")
        def first(inner_model, compute, **options):  # pragma: no cover
            raise AssertionError("replaced")

        try:

            @register_backend("victim", overwrite=True)
            def second(inner_model, compute, **options):
                return InMemoryBackend(inner_model.tables, compute)

            assert isinstance(create_backend("victim", model), InMemoryBackend)
        finally:
            unregister_backend("victim")

    def test_factory_must_return_embedding_backend(self, model):
        @register_backend("broken")
        def build(inner_model, compute, **options):
            return object()

        try:
            with pytest.raises(BackendRegistryError, match="not an EmbeddingBackend"):
                create_backend("broken", model)
        finally:
            unregister_backend("broken")

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownBackendError):
            unregister_backend("never-registered")

    def test_registered_backend_is_abc_compatible(self, model):
        assert isinstance(create_backend("sdm", model), EmbeddingBackend)
