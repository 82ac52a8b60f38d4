"""Built-in embedding backends registered with the API registry.

Four backends ship with the package:

* ``dram`` — the DRAM-only reference (:class:`~repro.dlrm.inference.InMemoryBackend`);
  every table lives in fast memory.  No options.
* ``sdm`` — the full Software Defined Memory stack
  (:class:`~repro.core.sdm.SoftwareDefinedMemory`); options are
  :class:`~repro.core.config.SDMConfig` fields, with ``access_path`` also
  accepted as a string for config-file friendliness.  The geometry is the
  ``tiers`` option, by default the paper's host
  (:data:`~repro.core.config.DEFAULT_TIERS`).
* ``pooled`` — SDM tuned for the pooled-embedding-cache path of section 4.4:
  the pooled cache takes the FM budget and every request is eligible
  (``pooled_len_threshold=0``); useful for isolating Algorithm 1's effect.
* ``tiered`` — SDM across an explicit N-tier memory hierarchy
  (:mod:`repro.hierarchy`).  The ``tiers`` option is an ordered list
  (fastest first) of ``{technology, capacity, cache}`` entries or a
  ``"dram:64KiB,cxl:1MiB,nand:1GiB"`` string; per-tier hit rates and bytes
  served land in the :class:`~repro.api.results.ScenarioResult`.  It differs
  from ``sdm`` only in its default list, a laptop-scale 3-tier hierarchy.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, Mapping, Type

from repro.core.config import DEFAULT_TIERS, AccessPathKind, SDMConfig
from repro.core.sdm import SoftwareDefinedMemory
from repro.dlrm.inference import ComputeSpec, EmbeddingBackend, InMemoryBackend
from repro.dlrm.model import DLRMModel
from repro.sim.units import MIB
from repro.hierarchy.tier import parse_tiers

from repro.api.registry import register_backend

_ENUM_FIELDS: Dict[str, Type[enum.Enum]] = {"access_path": AccessPathKind}


def _coerce_enum(field_name: str, enum_type: Type[enum.Enum], value: Any) -> enum.Enum:
    """Accept an enum member, its value, or its (case-insensitive) name."""
    if isinstance(value, enum_type):
        return value
    if isinstance(value, str):
        try:
            return enum_type(value)
        except ValueError:
            pass
        try:
            return enum_type[value.upper()]
        except KeyError:
            pass
    raise ValueError(
        f"{field_name}={value!r} is not a valid {enum_type.__name__}; "
        f"choices: {[member.value for member in enum_type]}"
    )


def sdm_config_from_options(options: Mapping[str, Any], **defaults: Any) -> SDMConfig:
    """Build an :class:`SDMConfig` from loosely-typed option mappings.

    ``defaults`` seed the config and are overridden by ``options``; unknown
    keys raise with the list of valid fields rather than a bare TypeError.
    """
    valid = {f.name for f in dataclasses.fields(SDMConfig)}
    unknown = set(options) - valid
    if unknown:
        raise ValueError(
            f"unknown SDM options {sorted(unknown)}; valid options: {sorted(valid)}"
        )
    merged: Dict[str, Any] = dict(defaults)
    merged.update(options)
    for field_name, enum_type in _ENUM_FIELDS.items():
        if field_name in merged:
            merged[field_name] = _coerce_enum(field_name, enum_type, merged[field_name])
    if "pinned_fm_tables" in merged:
        merged["pinned_fm_tables"] = tuple(merged["pinned_fm_tables"])
    return SDMConfig(**merged)


@register_backend("dram", description="DRAM-only reference (every table in fast memory)")
def _build_dram(model: DLRMModel, compute: ComputeSpec, **options) -> EmbeddingBackend:
    if options:
        raise ValueError(f"the 'dram' backend takes no options, got {sorted(options)}")
    return InMemoryBackend(model.tables, compute)


@register_backend("sdm", description="Software Defined Memory stack (row + pooled caches)")
def _build_sdm(model: DLRMModel, compute: ComputeSpec, **options) -> EmbeddingBackend:
    return SoftwareDefinedMemory(model, sdm_config_from_options(options), compute=compute)


@register_backend("pooled", description="SDM serving through the pooled embedding cache (Alg. 1)")
def _build_pooled(model: DLRMModel, compute: ComputeSpec, **options) -> EmbeddingBackend:
    if not options.get("pooled_cache_enabled", True):
        raise ValueError("the 'pooled' backend requires pooled_cache_enabled=True")
    defaults: Dict[str, Any] = dict(pooled_len_threshold=0, pooled_cache_capacity_bytes=8 * MIB)
    tiers = parse_tiers(options.get("tiers", DEFAULT_TIERS))
    if not tiers or tiers[0].cache_bytes is None:
        # The row cache gives way to the pooled cache, unless tier 0 sizes it.
        defaults["row_cache_capacity_bytes"] = 1 * MIB
    config = sdm_config_from_options(options, **defaults)
    return SoftwareDefinedMemory(model, config, compute=compute)


#: Laptop-scale default hierarchy for the ``tiered`` backend: a small DRAM
#: budget, a CXL middle tier sized for a few hot tables, NAND for the rest.
TIERED_DEFAULT_TIERS = "dram:64KiB,cxl:1MiB:64KiB,nand:1GiB"


@register_backend("tiered", description="SDM across an N-tier memory hierarchy (repro.hierarchy)")
def _build_tiered(model: DLRMModel, compute: ComputeSpec, **options) -> EmbeddingBackend:
    config = sdm_config_from_options(options, tiers=TIERED_DEFAULT_TIERS)
    return SoftwareDefinedMemory(model, config, compute=compute)
