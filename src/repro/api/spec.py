"""Declarative scenario descriptions for the unified experiment API.

A :class:`ScenarioSpec` is a frozen, serialisable description of one
end-to-end experiment: which paper model to build (and at what scale),
which embedding backend serves the user tables, what the synthetic query
stream looks like, and how the host serves it (concurrency, warmup, SLO,
optional fleet/power accounting).  Everything a :class:`~repro.api.session.Session`
builds is derived from the spec, so specs round-trip through ``to_dict`` /
``from_dict`` and can live in JSON config files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.dlrm.embedding import check_positive_int
from repro.dlrm.model_config import ALL_MODEL_SPECS, ModelSpec, figure1_model_spec
from repro.serving.latency import LatencyTarget
from repro.sim.units import MILLISECOND
from repro.workload.generator import ARRIVAL_PROCESSES, WorkloadConfig


def model_spec_by_name(name: str) -> ModelSpec:
    """Resolve a paper model name (``M1``/``M2``/``M3``/``fig1``) to its spec."""
    if name in ALL_MODEL_SPECS:
        return ALL_MODEL_SPECS[name]
    if name.lower() in ("fig1", "figure1"):
        return figure1_model_spec()
    known = sorted(ALL_MODEL_SPECS) + ["fig1"]
    raise ValueError(f"unknown model spec {name!r}; known models: {known}")


@dataclass(frozen=True)
class ModelChoice:
    """Which paper model to build, and at what laptop scale.

    The four numbers are checked here, each error naming its dotted path
    (``model.max_rows_per_table``): the build generates no table values, so
    a value that is not a positive integer would otherwise fail late or not
    at all.
    """

    spec: str = "M1"
    max_tables_per_group: int = 4
    max_rows_per_table: int = 2048
    item_batch: Optional[int] = 4
    seed: int = 0

    def __post_init__(self) -> None:
        model_spec_by_name(self.spec)  # fail fast on unknown names
        check_positive_int(self.max_tables_per_group, "model.max_tables_per_group")
        check_positive_int(self.max_rows_per_table, "model.max_rows_per_table")
        if self.item_batch is not None:
            check_positive_int(self.item_batch, "model.item_batch")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"model.seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class BackendChoice:
    """Which registered embedding backend serves the user tables.

    ``options`` are passed verbatim to the backend factory registered under
    ``name`` (see :mod:`repro.api.registry`); for the built-in ``sdm`` and
    ``pooled`` backends they are :class:`~repro.core.config.SDMConfig` fields.
    """

    name: str = "sdm"
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))


@dataclass(frozen=True)
class WorkloadChoice:
    """The synthetic query stream served by the scenario."""

    num_queries: int = 200
    item_batch: Optional[int] = None  # None: inherit the model's item batch
    num_users: int = 200
    user_zipf_alpha: float = 1.1
    sequence_repeat_probability: float = 0.05
    sequence_pool_size: int = 256
    user_reuse_probability: float = 0.8
    pooling_factor_jitter: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_queries <= 0:
            raise ValueError(f"num_queries must be positive: {self.num_queries}")

    def to_workload_config(self, model_item_batch: int) -> WorkloadConfig:
        return WorkloadConfig(
            item_batch=self.item_batch if self.item_batch is not None else model_item_batch,
            num_users=self.num_users,
            user_zipf_alpha=self.user_zipf_alpha,
            sequence_repeat_probability=self.sequence_repeat_probability,
            sequence_pool_size=self.sequence_pool_size,
            user_reuse_probability=self.user_reuse_probability,
            pooling_factor_jitter=self.pooling_factor_jitter,
        )


@dataclass(frozen=True)
class TrafficSpec:
    """How queries arrive at the host: closed loop, or an open-loop process.

    ``mode="closed"`` (the default) reproduces the seed behaviour: each of
    the host's serving streams issues its next query the instant the previous
    one completes, so the host is always exactly saturated.  ``mode="open"``
    drives the event-driven engine instead: queries arrive on their own
    schedule (``arrival`` = ``poisson``, ``constant`` or ``trace``) at
    ``offered_qps``, wait in a bounded admission queue of ``queue_depth``
    slots, and are shed when the queue is full — which is what makes
    latency-vs-offered-load curves and saturation knees measurable.
    ``serve_batch`` sets how many waiting queries a freed serving stream
    drains per dispatch (1 — the default — is the classic behaviour).
    """

    mode: str = "closed"
    arrival: str = "poisson"
    offered_qps: Optional[float] = None
    queue_depth: int = 64
    serve_batch: int = 1
    trace: Tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"traffic mode must be 'closed' or 'open': {self.mode!r}")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; known: "
                f"{list(ARRIVAL_PROCESSES)}"
            )
        if self.queue_depth < 0:
            raise ValueError(f"queue_depth must be non-negative: {self.queue_depth}")
        if self.serve_batch < 1:
            raise ValueError(f"serve_batch must be positive: {self.serve_batch}")
        object.__setattr__(self, "trace", tuple(float(t) for t in self.trace))
        if self.mode == "open":
            if self.arrival == "trace":
                if not self.trace:
                    raise ValueError("open-loop trace arrivals need a non-empty trace")
            elif self.offered_qps is None or self.offered_qps <= 0:
                raise ValueError(
                    f"open-loop {self.arrival} arrivals need a positive "
                    f"offered_qps: {self.offered_qps}"
                )


@dataclass(frozen=True)
class ServingChoice:
    """Host-level serving parameters, the SLO, and optional fleet accounting.

    The fleet fields are optional: when ``platform`` and ``fleet_qps`` are
    set, :meth:`Session.run` attaches a power summary (Equation 7 plus the
    :class:`~repro.serving.power.PowerModel`) to the result, comparing against
    ``baseline_platform`` when given.
    """

    concurrency: int = 2
    warmup_queries: int = 40
    reset_stats_after_warmup: bool = False
    store_results: bool = True
    slo_percentile: float = 95.0
    slo_budget_ms: float = 25.0

    platform: Optional[str] = None
    qps_per_host: Optional[float] = None
    helper_platform: Optional[str] = None
    helper_hosts_per_host: float = 0.0
    baseline_platform: Optional[str] = None
    baseline_qps_per_host: Optional[float] = None
    baseline_helper_platform: Optional[str] = None
    baseline_helper_hosts_per_host: float = 0.0
    fleet_qps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.concurrency <= 0:
            raise ValueError(f"concurrency must be positive: {self.concurrency}")
        if self.warmup_queries < 0:
            raise ValueError(f"warmup_queries must be non-negative: {self.warmup_queries}")
        if self.slo_budget_ms <= 0:
            raise ValueError(f"slo_budget_ms must be positive: {self.slo_budget_ms}")

    def latency_target(self) -> LatencyTarget:
        return LatencyTarget(
            percentile=self.slo_percentile,
            budget_seconds=self.slo_budget_ms * MILLISECOND,
        )


@dataclass(frozen=True)
class TelemetrySpec:
    """Observability knobs (:mod:`repro.obs`); everything off by default.

    ``trace`` records per-query spans on the simulated clock and attaches a
    Chrome-trace-event export to the result.  ``sample_interval`` (simulated
    seconds, ``0`` disables) snapshots tier/cache/IO/admission counters into
    :attr:`~repro.api.results.ScenarioResult.timeline` window deltas.
    With every knob off (the default) the serving path is bit-identical to
    a build without telemetry, which the parity tests pin.
    """

    trace: bool = False
    sample_interval: float = 0.0
    max_trace_events: int = 1_000_000

    def __post_init__(self) -> None:
        if self.sample_interval < 0:
            raise ValueError(
                f"sample_interval must be non-negative: {self.sample_interval}"
            )
        if self.max_trace_events < 1:
            raise ValueError(
                f"max_trace_events must be positive: {self.max_trace_events}"
            )

    @property
    def enabled(self) -> bool:
        return self.trace or self.sample_interval > 0


_SECTION_TYPES = {
    "model": ModelChoice,
    "backend": BackendChoice,
    "workload": WorkloadChoice,
    "traffic": TrafficSpec,
    "serving": ServingChoice,
    "telemetry": TelemetrySpec,
}

#: Traffic parameters the closed loop never reads: varying one of these with
#: closed-loop traffic silently produces identical experiments, so campaign
#: grids over them reject closed-loop base specs up front, and the CLI's
#: ``--set``/``--grid`` on one opens the loop.
OPEN_LOOP_ONLY_PARAMS = frozenset(
    {
        "traffic.offered_qps",
        "traffic.queue_depth",
        "traffic.serve_batch",
        "traffic.arrival",
        "traffic.trace",
    }
)


def section_fields(section: str) -> Tuple[str, ...]:
    """The field names of one spec section (``"serving"`` → its dataclass fields)."""
    if section not in _SECTION_TYPES:
        raise ValueError(
            f"unknown spec section {section!r}; sections: {sorted(_SECTION_TYPES)}"
        )
    return tuple(f.name for f in dataclasses.fields(_SECTION_TYPES[section]))


def spec_path_error(path: str) -> Optional[str]:
    """Statically validate a dotted spec path against the schema.

    Returns ``None`` when ``path`` is a structurally valid
    :meth:`ScenarioSpec.replace` / campaign-grid / CLI ``--set`` address,
    and a human-readable error message otherwise, without building a
    spec.  ``--set`` and ``--grid`` check every path with it before a point
    runs.

    Backend options below ``backend.options`` are free-form (each backend
    factory defines its own), so only their *structured* sub-schemas — the
    ``tiers`` list — are validated in depth.
    """
    parts = path.split(".")
    if any(not part for part in parts):
        return f"spec path {path!r} has an empty segment"
    if parts[0] == "tiers":
        parts = ["backend", "options"] + parts
    if parts == ["name"]:
        return None
    if parts[0] not in _SECTION_TYPES:
        return (
            f"unknown spec path {path!r}; top-level keys: "
            f"{['name', 'tiers'] + sorted(_SECTION_TYPES)}"
        )
    if len(parts) == 1:
        return None
    section_type = _SECTION_TYPES[parts[0]]
    fields = set(section_fields(parts[0]))
    if parts[1] not in fields:
        return (
            f"{section_type.__name__} has no field {parts[1]!r} "
            f"(path {path!r}); valid fields: {sorted(fields)}"
        )
    if parts[0] == "backend" and parts[1] == "options":
        if len(parts) >= 4 and parts[2] == "tiers":
            rest = parts[3:]
            try:
                int(rest[0])
            except ValueError:
                return (
                    f"spec path {path!r}: expected a tier index after 'tiers', "
                    f"got {rest[0]!r}"
                )
            if len(rest) >= 2:
                from repro.hierarchy.tier import TIER_ENTRY_KEYS

                if rest[1] not in TIER_ENTRY_KEYS:
                    return (
                        f"spec path {path!r}: unknown tier key {rest[1]!r}; "
                        f"valid keys: {sorted(TIER_ENTRY_KEYS)}"
                    )
                if len(rest) > 2:
                    return (
                        f"spec path {path!r}: tier key {rest[1]!r} is a scalar "
                        f"and takes no sub-path"
                    )
        return None
    if len(parts) > 2:
        return (
            f"spec path {path!r} descends below {parts[0]}.{parts[1]}, "
            f"which is a scalar field"
        )
    return None


def coord_label(value: Any) -> Any:
    """A compact, JSON-able label for one swept spec value.

    Scalars pass through; spec sections label as their ``name`` field when
    they have one (``BackendChoice(name="dram")`` → ``"dram"``); anything
    else falls back to ``str``.  Shared by campaign point naming, stored
    coordinates and table rendering so the three never drift apart.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return str(value)


def _nested_replace(container: Any, parts: Sequence[str], value: Any, path: str) -> Any:
    """Set a nested position inside a list/mapping option, copying each level.

    Lists index by integer part (``tiers.1``), mappings by key
    (``tiers.1.capacity``).  The containers along the path are shallow-copied
    so specs stay value-semantic.
    """
    part = parts[0]
    if isinstance(container, (list, tuple)):
        try:
            index = int(part)
        except ValueError:
            raise ValueError(
                f"path {path!r}: expected a list index at {part!r}"
            ) from None
        if not 0 <= index < len(container):
            raise ValueError(
                f"path {path!r}: index {index} out of range for a list of "
                f"{len(container)} entries"
            )
        items = list(container)
        items[index] = (
            value
            if len(parts) == 1
            else _nested_replace(items[index], parts[1:], value, path)
        )
        return items
    if isinstance(container, Mapping):
        data = dict(container)
        if len(parts) == 1:
            data[part] = value
            return data
        if part not in data:
            raise ValueError(f"path {path!r}: no key {part!r} in {sorted(data)}")
        data[part] = _nested_replace(data[part], parts[1:], value, path)
        return data
    raise ValueError(
        f"path {path!r}: cannot descend into {type(container).__name__} at {part!r}"
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described experiment: model + backend + workload + traffic + serving."""

    name: str = "scenario"
    model: ModelChoice = field(default_factory=ModelChoice)
    backend: BackendChoice = field(default_factory=BackendChoice)
    workload: WorkloadChoice = field(default_factory=WorkloadChoice)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    serving: ServingChoice = field(default_factory=ServingChoice)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)

    # ------------------------------------------------------------- serialise
    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-serialisable dict that round-trips via ``from_dict``."""
        traffic = dataclasses.asdict(self.traffic)
        traffic["trace"] = list(traffic["trace"])  # tuples do not survive JSON
        return {
            "name": self.name,
            "model": dataclasses.asdict(self.model),
            "backend": {"name": self.backend.name, "options": dict(self.backend.options)},
            "workload": dataclasses.asdict(self.workload),
            "traffic": traffic,
            "serving": dataclasses.asdict(self.serving),
            "telemetry": dataclasses.asdict(self.telemetry),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output, rejecting unknown keys."""
        unknown = set(data) - ({"name"} | set(_SECTION_TYPES))
        if unknown:
            raise ValueError(f"unknown ScenarioSpec keys: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {"name": data.get("name", "scenario")}
        for section, section_type in _SECTION_TYPES.items():
            raw = data.get(section, {})
            if not isinstance(raw, Mapping):
                raise ValueError(
                    f"{section!r} must be a mapping of {section_type.__name__} "
                    f"fields, got {type(raw).__name__}"
                )
            field_names = {f.name for f in dataclasses.fields(section_type)}
            bad = set(raw) - field_names
            if bad:
                raise ValueError(
                    f"unknown {section_type.__name__} keys in {section!r}: {sorted(bad)}"
                )
            kwargs[section] = section_type(**raw)
        return cls(**kwargs)

    # --------------------------------------------------------------- hashing
    @staticmethod
    def _canonical_encode(payload: Any) -> str:
        """Byte-stable JSON: sorted keys, fixed separators, ``str`` fallback."""
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)

    def canonical_json(self) -> str:
        """A byte-stable JSON encoding of :meth:`to_dict`.

        Keys are sorted and separators fixed, so the same logical spec always
        encodes to the same string — across processes, interpreter runs and
        :meth:`from_dict` round trips.  Non-JSON option values (enums that are
        not ``str`` subclasses, paths, …) fall back to ``str(value)``, which
        matches how they re-enter the spec from a JSON config file.
        """
        return self._canonical_encode(self.to_dict())

    def spec_hash(self) -> str:
        """Content-address of this spec: SHA-256 of :meth:`canonical_json`.

        The experiment store (:mod:`repro.runtime.store`) keys completed runs
        by this hash, so its stability across processes is load-bearing.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def backend_hash(self) -> str:
        """Content-address of the *built* serving stack this spec implies.

        Covers exactly the sections :class:`~repro.api.session.Session`
        consumes when building the model and backend — ``model`` and
        ``backend`` (the latter includes the tier hierarchy, which lives in
        ``backend.options.tiers``).  Workload, traffic, serving and telemetry
        only shape *how* the built stack is driven, so two points of a
        campaign that differ only along those axes share a ``backend_hash``
        and can reuse one worker-resident backend (see
        :mod:`repro.runtime.runtimes`) instead of rebuilding it.
        """
        return self._sections_hash("model", "backend")

    def stream_hash(self) -> str:
        """Content-address of the query stream this spec implies.

        Covers the ``model`` and ``workload`` sections (seeds included): the
        stream is a pure function of the built model's tables and the
        workload, so campaign points that share this hash can serve one
        worker-resident stream (see :mod:`repro.runtime.runtimes`).
        """
        return self._sections_hash("model", "workload")

    def _sections_hash(self, *sections: str) -> str:
        data = self.to_dict()
        payload = {section: data[section] for section in sections}
        return hashlib.sha256(
            self._canonical_encode(payload).encode("utf-8")
        ).hexdigest()

    # -------------------------------------------------------------- override
    def replace(self, path: str, value: Any) -> "ScenarioSpec":
        """Return a copy with the dotted ``path`` replaced by ``value``.

        ``path`` addresses a spec field (``"name"``), a whole section
        (``"backend"`` — ``value`` is a section instance or a mapping of its
        fields), a section field (``"serving.concurrency"``), a backend
        option (``"backend.options.row_cache_capacity_bytes"``) or a
        position inside a structured option
        (``"backend.options.tiers.1.capacity"``) — the
        addressing scheme campaign grids and the CLI's ``--set`` use.
        ``"tiers...."`` paths are shorthand for ``"backend.options.tiers...."``
        so tier geometries sweep like any other knob.
        """
        parts = path.split(".")
        if parts[0] == "tiers":
            parts = ["backend", "options"] + parts
        if parts[0] == "name" and len(parts) == 1:
            return dataclasses.replace(self, name=value)
        if parts[0] not in _SECTION_TYPES:
            raise ValueError(
                f"unknown spec path {path!r}; top-level keys: "
                f"{['name', 'tiers'] + sorted(_SECTION_TYPES)}"
            )
        if len(parts) == 1:
            section_type = _SECTION_TYPES[parts[0]]
            if isinstance(value, Mapping):
                value = section_type(**value)
            if not isinstance(value, section_type):
                raise ValueError(
                    f"replacing {path!r} needs a {section_type.__name__} or a "
                    f"mapping of its fields, got {type(value).__name__}"
                )
            return dataclasses.replace(self, **{parts[0]: value})
        section = getattr(self, parts[0])
        if parts[0] == "backend" and len(parts) >= 3 and parts[1] == "options":
            options = dict(section.options)
            if len(parts) == 3:
                options[parts[2]] = value
            else:
                if parts[2] not in options:
                    raise ValueError(
                        f"cannot address {path!r}: backend option {parts[2]!r} is "
                        f"not set on the spec"
                    )
                target = options[parts[2]]
                if parts[2] == "tiers" and isinstance(target, str):
                    # Compact "dram:4GiB,nand:1TiB" strings are a valid tiers
                    # form; normalise to a list of mappings so positional
                    # paths (tiers.1.capacity) can descend into them.
                    from repro.hierarchy.tier import parse_tiers

                    target = [tier.to_dict() for tier in parse_tiers(target)]
                options[parts[2]] = _nested_replace(target, parts[3:], value, path)
            return dataclasses.replace(self, backend=dataclasses.replace(section, options=options))
        if len(parts) != 2:
            raise ValueError(f"spec path must be 'section.field': {path!r}")
        if parts[1] not in {f.name for f in dataclasses.fields(section)}:
            raise ValueError(f"{type(section).__name__} has no field {parts[1]!r}")
        return dataclasses.replace(
            self, **{parts[0]: dataclasses.replace(section, **{parts[1]: value})}
        )
