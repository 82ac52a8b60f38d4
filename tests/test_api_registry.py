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
from repro.core.config import PlacementPolicy
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
            num_devices=3,
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

    def test_pooled_rejects_disabling_its_cache(self, model):
        with pytest.raises(ValueError, match="pooled_cache_enabled"):
            create_backend("pooled", model, pooled_cache_enabled=False)

    def test_dram_rejects_options(self, model):
        with pytest.raises(ValueError, match="takes no options"):
            create_backend("dram", model, num_devices=2)

    def test_sdm_rejects_unknown_options(self, model):
        with pytest.raises(ValueError, match="unknown SDM options"):
            create_backend("sdm", model, not_a_knob=1)

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
                "device_technology": "pcie_3dxp_optane",
                "placement_policy": "fixed_fm_sm",
                "access_path": "mmap",
            }
        )
        assert config.device_technology is Technology.OPTANE_SSD
        assert config.placement_policy is PlacementPolicy.FIXED_FM_SM
        assert config.access_path is AccessPathKind.MMAP

    def test_enum_fields_accept_names_case_insensitive(self):
        config = sdm_config_from_options({"device_technology": "nand_flash"})
        assert config.device_technology is Technology.NAND_FLASH

    def test_bad_enum_value_lists_choices(self):
        with pytest.raises(ValueError, match="not a valid Technology"):
            sdm_config_from_options({"device_technology": "floppy_disk"})

    def test_defaults_overridden_by_options(self):
        config = sdm_config_from_options({"num_devices": 4}, num_devices=2, seed=7)
        assert config.num_devices == 4
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
