"""Multi-dimensional scenario matrices as a first-class object.

A :class:`CampaignSpec` is a base :class:`~repro.api.spec.ScenarioSpec` plus a
grid of parameter axes, each addressed with the dotted paths of
:meth:`ScenarioSpec.replace` (``"backend.name"``, ``"traffic.offered_qps"``,
``"backend.options.row_cache_capacity_bytes"``, or a whole section such as
``"backend"`` with :class:`~repro.api.spec.BackendChoice` values).  Expansion
is deterministic: the cartesian product is walked in axis order (last axis
fastest), every point gets a coordinate-derived name and — when
``replicates > 1`` — coordinate-derived workload/traffic seeds, so a point is
fully described by its own :class:`ScenarioSpec` and can be executed in any
process, in any order, with identical results.

This is what turns the nested ``for backend: for qps:`` loops of the example
scripts into one schedulable, cacheable object the executor and store
(:mod:`repro.runtime.executor`, :mod:`repro.runtime.store`) operate on.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.api.backends import check_backend
from repro.api.spec import _SECTION_TYPES, OPEN_LOOP_ONLY_PARAMS, ScenarioSpec, coord_label

#: The implicit axis name used for seed replicates (never a real spec path).
REPLICATE_AXIS = "replicate"

#: Deterministic stride between replicate seeds, so replicate r of point A
#: never collides with replicate 0 of a neighbouring seed choice.
_REPLICATE_SEED_STRIDE = 9973


def _touches_backend(param: str) -> bool:
    """Whether a grid axis sets (part of) the ``backend`` section."""
    return param.split(".", 1)[0] in ("backend", "tiers")


def _jsonable_axis_value(value: Any) -> Any:
    """Encode one grid value for campaign metadata (``CampaignSpec.to_dict``)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, Mapping):
        return dict(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable_axis_value(item) for item in value]
    return str(value)


@dataclass(frozen=True)
class CampaignAxis:
    """One swept dimension: a dotted spec path and the values it takes."""

    param: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.param!r} needs at least one value")
        if self.param == REPLICATE_AXIS:
            raise ValueError(
                f"{REPLICATE_AXIS!r} is the implicit replicate axis; "
                f"use CampaignSpec(replicates=N) instead"
            )


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded grid point: its coordinates and fully-specified spec.

    ``coords`` hold the raw axis values; ``label_pairs`` are the JSON-able
    labels the expansion derived for them — disambiguated, so two axis values
    that share a display label (e.g. two ``sdm`` backends with different
    options) still get distinct labels, names and therefore spec hashes.
    """

    index: int
    coords: Tuple[Tuple[str, Any], ...]
    label_pairs: Tuple[Tuple[str, Any], ...]
    spec: ScenarioSpec

    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    def labels(self) -> Tuple[Tuple[str, Any], ...]:
        """``coords`` with every value reduced to its disambiguated label."""
        return self.label_pairs

    def label(self) -> str:
        return ",".join(f"{param}={value}" for param, value in self.label_pairs)


def point_name(campaign_name: str, coords: Iterable[Tuple[str, Any]]) -> str:
    """The scenario name a point runs under: campaign name + coordinates.

    ``coords`` may carry raw values (labelled via :func:`coord_label`) or
    pre-computed labels.  Embedding the coordinates in the name makes stored
    results self-describing and gives run comparison its point identity;
    :meth:`CampaignSpec.points` passes disambiguated labels so every point's
    name — and spec hash — is unique within a campaign.
    """
    suffix = ",".join(f"{param}={coord_label(value)}" for param, value in coords)
    return f"{campaign_name}[{suffix}]" if suffix else campaign_name


@dataclass(frozen=True)
class CampaignSpec:
    """A base scenario crossed with a grid of parameter axes.

    ``axes`` accepts :class:`CampaignAxis` instances or plain
    ``(param, values)`` pairs.  ``replicates > 1`` appends an implicit
    ``replicate`` axis whose value ``r`` shifts the workload and traffic seeds
    by a deterministic stride — independent repetitions for error bars without
    giving up reproducibility.
    """

    name: str = "campaign"
    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    axes: Tuple[CampaignAxis, ...] = ()
    replicates: int = 1

    def __post_init__(self) -> None:
        normalised = tuple(
            self._coerce_axis(
                axis if isinstance(axis, CampaignAxis) else CampaignAxis(*axis)
            )
            for axis in self.axes
        )
        object.__setattr__(self, "axes", normalised)
        params = [axis.param for axis in normalised]
        if len(set(params)) != len(params):
            raise ValueError(f"duplicate campaign axes: {params}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be positive: {self.replicates}")
        # Fail fast on bad paths/values: every grid value must be applicable
        # to the base spec, which also runs the section validators.
        backend_axes = [axis for axis in normalised if _touches_backend(axis.param)]
        for axis in normalised:
            if not _touches_backend(axis.param):
                for value in axis.values:
                    self.base.replace(axis.param, value)
        # A backend name and its options only fit together once every axis
        # has had its say, so each backend section the points can assemble
        # is checked whole (a handful of combinations, not every point).
        for assignment in product(*(axis.values for axis in backend_axes)):
            spec = self.base
            for axis, value in zip(backend_axes, assignment):
                spec = spec.replace(axis.param, value)
            check_backend(spec.backend.name, spec.backend.options)
        # A grid over open-loop-only traffic knobs on a closed-loop base would
        # expand into identical experiments per value — reject it up front
        # unless the grid also opens the loop.
        if self.base.traffic.mode == "closed" and not (
            {"traffic", "traffic.mode"} & set(params)
        ):
            dead = sorted(set(params) & OPEN_LOOP_ONLY_PARAMS)
            if dead:
                raise ValueError(
                    f"axis {dead} has no effect with closed-loop traffic; "
                    f"set traffic.mode='open' on the base spec (e.g. "
                    f"TrafficSpec(mode='open', arrival='poisson', "
                    f"offered_qps=...)) or add a 'traffic.mode' axis"
                )

    @staticmethod
    def _coerce_axis(axis: CampaignAxis) -> CampaignAxis:
        """Rebuild section instances on section-valued axes.

        ``to_dict`` serialises a whole-section axis value (e.g. a
        :class:`BackendChoice`) as a plain mapping; coercing it back here
        keeps point names — and therefore spec hashes — identical across a
        campaign's own :meth:`from_dict` round trip.
        """
        section_type = _SECTION_TYPES.get(axis.param)
        if section_type is None:
            return axis
        return CampaignAxis(
            axis.param,
            tuple(
                section_type(**value) if isinstance(value, Mapping) else value
                for value in axis.values
            ),
        )

    # ------------------------------------------------------------- geometry
    @property
    def shape(self) -> Tuple[int, ...]:
        dims = tuple(len(axis.values) for axis in self.axes)
        return dims + (self.replicates,) if self.replicates > 1 else dims

    def num_points(self) -> int:
        return math.prod(self.shape) if self.shape else 1

    @property
    def params(self) -> Tuple[str, ...]:
        names = tuple(axis.param for axis in self.axes)
        return names + (REPLICATE_AXIS,) if self.replicates > 1 else names

    # ------------------------------------------------------------ expansion
    @staticmethod
    def _axis_labels(axis: CampaignAxis) -> List[Any]:
        """Display labels for one axis' values, disambiguated when they clash.

        Two values can share a label (``BackendChoice('sdm', optsA)`` vs
        ``('sdm', optsB)``); suffixing the axis position keeps point names —
        the identity run comparison matches on — unique.
        """
        labels = [coord_label(value) for value in axis.values]
        counts = Counter(labels)
        return [
            f"{label}#{position}" if counts[label] > 1 else label
            for position, label in enumerate(labels)
        ]

    def points(self) -> List[CampaignPoint]:
        """Expand the grid into concrete, individually-specified points.

        Axis order is significant (last axis varies fastest) and the result
        is a pure function of the campaign, so point ``i`` means the same
        experiment on every expansion, in every process.
        """
        value_lists: List[Sequence[Any]] = [axis.values for axis in self.axes]
        label_lists: List[Sequence[Any]] = [self._axis_labels(axis) for axis in self.axes]
        if self.replicates > 1:
            value_lists.append(range(self.replicates))
            label_lists.append(range(self.replicates))
        points: List[CampaignPoint] = []
        for index, (assignment, labelling) in enumerate(
            zip(product(*value_lists), product(*label_lists))
        ):
            coords = tuple(zip(self.params, assignment))
            label_pairs = tuple(zip(self.params, labelling))
            spec = self.base
            for param, value in coords:
                if param == REPLICATE_AXIS:
                    # The replicate axis expands last, so offsets compose with
                    # whatever seed the other axes picked for this point.
                    stride = int(value) * _REPLICATE_SEED_STRIDE
                    spec = spec.replace("workload.seed", spec.workload.seed + stride)
                    spec = spec.replace("traffic.seed", spec.traffic.seed + stride)
                else:
                    spec = spec.replace(param, value)
            spec = spec.replace("name", point_name(self.name, label_pairs))
            points.append(
                CampaignPoint(
                    index=index, coords=coords, label_pairs=label_pairs, spec=spec
                )
            )
        return points

    # ----------------------------------------------------------- convenience
    @classmethod
    def from_grid(
        cls,
        base: ScenarioSpec,
        grid: Mapping[str, Sequence[Any]],
        *,
        name: Optional[str] = None,
        replicates: int = 1,
    ) -> "CampaignSpec":
        """Build a campaign from a ``{param: values}`` mapping (in order)."""
        axes = tuple(CampaignAxis(param, tuple(values)) for param, values in grid.items())
        return cls(
            name=name if name is not None else base.name,
            base=base,
            axes=axes,
            replicates=replicates,
        )

    # ------------------------------------------------------------- serialise
    def to_dict(self) -> Dict[str, Any]:
        """JSON-able description (campaign metadata in the experiment store)."""
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": [
                {
                    "param": axis.param,
                    "values": [_jsonable_axis_value(v) for v in axis.values],
                }
                for axis in self.axes
            ],
            "replicates": self.replicates,
        }
