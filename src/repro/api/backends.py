"""The embedding backends a scenario can name: one closed table.

Three backends ship with the package, one row of :data:`BACKENDS` each:

* ``dram`` — the DRAM-only reference (:class:`~repro.dlrm.inference.InMemoryBackend`);
  every table lives in fast memory.  No options.
* ``sdm`` — the full Software Defined Memory stack
  (:class:`~repro.core.sdm.SoftwareDefinedMemory`); options are
  :class:`~repro.core.config.SDMConfig` fields, with ``access_path`` also
  accepted as a string for config-file friendliness.  The geometry is the
  ``tiers`` option, by default the paper's host
  (:data:`~repro.core.config.DEFAULT_TIERS`).  Algorithm 1's pooled-cache
  study is this backend with ``pooled_len_threshold=0`` and the FM budget
  moved from the row cache to the pooled cache.
* ``tiered`` — SDM across an explicit N-tier memory hierarchy
  (:mod:`repro.hierarchy`).  The ``tiers`` option is an ordered list
  (fastest first) of ``{technology, capacity, cache}`` entries or a
  ``"dram:64KiB,cxl:1MiB,nand:1GiB"`` string; per-tier hit rates and bytes
  served land in the :class:`~repro.api.results.ScenarioResult`.  It differs
  from ``sdm`` only in its default list, a laptop-scale 3-tier hierarchy.

The table is closed: a new backend is a new row.  Each row names the
options its backend takes, so :func:`check_backend` rejects a misspelt name
or option on a finished spec, before any point of a campaign runs.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Dict, FrozenSet, Mapping, NamedTuple, Optional, Type

from repro.core.config import AccessPathKind, SDMConfig
from repro.core.sdm import SoftwareDefinedMemory
from repro.dlrm.inference import ComputeSpec, EmbeddingBackend, InMemoryBackend
from repro.dlrm.model import DLRMModel

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


def _sdm_config(options: Mapping[str, Any], **defaults: Any) -> SDMConfig:
    """Build an :class:`SDMConfig` from loosely-typed option mappings.

    ``defaults`` seed the config and are overridden by ``options``, whose
    keys :func:`create_backend` has already checked.
    """
    merged: Dict[str, Any] = dict(defaults)
    merged.update(options)
    for field_name, enum_type in _ENUM_FIELDS.items():
        if field_name in merged:
            merged[field_name] = _coerce_enum(field_name, enum_type, merged[field_name])
    if "pinned_fm_tables" in merged:
        merged["pinned_fm_tables"] = tuple(merged["pinned_fm_tables"])
    return SDMConfig(**merged)


#: Laptop-scale default hierarchy for the ``tiered`` backend: a small DRAM
#: budget, a CXL middle tier sized for a few hot tables, NAND for the rest.
TIERED_DEFAULT_TIERS = "dram:64KiB,cxl:1MiB:64KiB,nand:1GiB"

_SDM_OPTIONS = frozenset(field.name for field in dataclasses.fields(SDMConfig))


class Backend(NamedTuple):
    """One row of the backend table."""

    build: Callable[..., EmbeddingBackend]  # (model, compute, **options)
    description: str
    options: FrozenSet[str]


def _build_dram(model: DLRMModel, compute: ComputeSpec) -> EmbeddingBackend:
    return InMemoryBackend(model.tables, compute)


def _build_sdm(model: DLRMModel, compute: ComputeSpec, **options: Any) -> EmbeddingBackend:
    return SoftwareDefinedMemory(model, _sdm_config(options), compute=compute)


def _build_tiered(model: DLRMModel, compute: ComputeSpec, **options: Any) -> EmbeddingBackend:
    config = _sdm_config(options, tiers=TIERED_DEFAULT_TIERS)
    return SoftwareDefinedMemory(model, config, compute=compute)


BACKENDS: Dict[str, Backend] = {
    "dram": Backend(_build_dram, "DRAM-only reference (every table in fast memory)", frozenset()),
    "sdm": Backend(_build_sdm, "Software Defined Memory stack (row + pooled caches)", _SDM_OPTIONS),
    "tiered": Backend(
        _build_tiered, "SDM across an N-tier memory hierarchy (repro.hierarchy)", _SDM_OPTIONS
    ),
}

#: Every option name some backend takes: the keys a ``backend.options.<key>``
#: spec path may name.
BACKEND_OPTIONS = frozenset().union(*(backend.options for backend in BACKENDS.values()))


def check_backend(name: str, options: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``name`` is a backend that takes every key of ``options``."""
    backend = BACKENDS.get(name)
    if backend is None:
        raise ValueError(f"unknown backend {name!r}; available backends: {sorted(BACKENDS)}")
    unknown = options.keys() - backend.options
    if unknown:
        if not backend.options:
            raise ValueError(f"the {name!r} backend takes no options, got {sorted(unknown)}")
        raise ValueError(
            f"unknown SDM options {sorted(unknown)}; valid options: {sorted(backend.options)}"
        )


def available_backends() -> Dict[str, str]:
    """Backend names mapped to their descriptions."""
    return {name: backend.description for name, backend in BACKENDS.items()}


def create_backend(
    name: str,
    model: DLRMModel,
    compute: Optional[ComputeSpec] = None,
    **options: Any,
) -> EmbeddingBackend:
    """Build backend ``name`` for ``model``."""
    check_backend(name, options)
    return BACKENDS[name].build(model, compute if compute is not None else ComputeSpec(), **options)
