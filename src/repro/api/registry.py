"""Pluggable embedding-backend registry.

The paper's central abstraction is a swappable embedding backend behind one
interface (:class:`~repro.dlrm.inference.EmbeddingBackend`).  This module
makes that pluggable at the API level: backends register a factory under a
short name, :func:`create_backend` instantiates one for a concrete model, and
third-party implementations plug in without touching core::

    from repro.api import register_backend

    @register_backend("my-tier", description="my experimental tier")
    def _build(model, compute, **options):
        return MyBackend(model, compute, **options)

Built-in backends (``dram``, ``sdm``, ``pooled``, ``tiered``) are registered by
:mod:`repro.api.backends` on import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.dlrm.inference import ComputeSpec, EmbeddingBackend
from repro.dlrm.model import DLRMModel

#: A factory builds a backend for a concrete model: ``(model, compute, **options)``.
BackendFactory = Callable[..., EmbeddingBackend]


class BackendRegistryError(Exception):
    """Base class for registry failures."""


class UnknownBackendError(BackendRegistryError, KeyError):
    """Requested backend name has no registered factory."""


class DuplicateBackendError(BackendRegistryError, ValueError):
    """A factory is already registered under this name."""


@dataclass(frozen=True)
class RegisteredBackend:
    """One registry entry: the factory plus its human-readable description."""

    name: str
    factory: BackendFactory
    description: str = ""


_REGISTRY: Dict[str, RegisteredBackend] = {}


def register_backend(
    name: str, *, description: str = "", overwrite: bool = False
) -> Callable[[BackendFactory], BackendFactory]:
    """Decorator registering ``factory`` as the builder for backend ``name``."""
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string: {name!r}")

    def decorate(factory: BackendFactory) -> BackendFactory:
        if name in _REGISTRY and not overwrite:
            raise DuplicateBackendError(
                f"backend {name!r} is already registered "
                f"({_REGISTRY[name].factory!r}); pass overwrite=True to replace it"
            )
        _REGISTRY[name] = RegisteredBackend(
            name=name, factory=factory, description=description
        )
        return factory

    return decorate


def unregister_backend(name: str) -> None:
    """Remove a registered backend (mainly for tests and plugin teardown)."""
    if name not in _REGISTRY:
        raise UnknownBackendError(name)
    del _REGISTRY[name]


def backend_registered(name: str) -> bool:
    return name in _REGISTRY


def available_backends() -> Dict[str, str]:
    """Registered backend names mapped to their descriptions."""
    return {entry.name: entry.description for entry in _REGISTRY.values()}


def create_backend(
    name: str,
    model: DLRMModel,
    compute: Optional[ComputeSpec] = None,
    **options,
) -> EmbeddingBackend:
    """Instantiate the backend registered under ``name`` for ``model``."""
    if name not in _REGISTRY:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered backends: {sorted(_REGISTRY)}"
        )
    compute = compute if compute is not None else ComputeSpec()
    backend = _REGISTRY[name].factory(model, compute, **options)
    if not isinstance(backend, EmbeddingBackend):
        raise BackendRegistryError(
            f"factory for backend {name!r} returned {type(backend).__name__}, "
            "not an EmbeddingBackend"
        )
    return backend
