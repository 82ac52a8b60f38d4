"""Run a campaign's points — through a pluggable runtime, memoised by store.

The executor is the scheduling layer between a :class:`CampaignSpec` and the
simulation core.  Each point travels as plain data: its spec serialises via
``ScenarioSpec.to_dict`` into the worker process, runs under a
:class:`~repro.api.session.Session` there, and comes back as the result's
``to_dict`` — no simulator state ever crosses a process boundary, which is
what makes every runtime bit-identical to the serial run (each point is a
pure function of its own spec; worker-resident backend reuse restores a
cached backend to its as-constructed state before every run).

*How* pending points execute is delegated to a
:class:`~repro.runtime.runtimes.Runtime` (serial, work-stealing local pool,
dry run); the executor owns what surrounds execution: serving already-stored
points from the :class:`ExperimentStore` without running anything, persisting
fresh results the moment they complete (so an interrupted campaign resumes
where it stopped), driving the progress callback in completion order, and
assembling :class:`PointOutcome` rows — including structured failure outcomes
for points the runtime quarantined, which are *not* persisted and therefore
retry on resume.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.api.results import ScenarioResult
from repro.api.spec import ScenarioSpec
from repro.runtime.campaign import CampaignPoint, CampaignSpec
from repro.runtime.runtimes import (
    PointCompletion,
    Runtime,
    RuntimeConfig,
    resolve_runtime,
)
from repro.runtime.store import ExperimentStore

#: ``progress(outcome, done, total)`` — called once per point: store-served
#: points first (in point order), then the runtime's completions in the order
#: they finish (point order for the serial runtime, completion order for the
#: work-stealing pool).
ProgressCallback = Callable[["PointOutcome", int, int], None]


@dataclass(frozen=True)
class PointOutcome:
    """One campaign point's terminal state: result, failure, or skip.

    ``coords`` carry the raw axis values; ``labels`` the expansion's
    disambiguated display labels (what point names and stored coordinates
    use).  Exactly one of three shapes:

    * ``ok`` — ``result`` is set (freshly executed, or ``cached`` from the
      store);
    * ``failed`` — the runtime quarantined the point after ``attempts``
      tries; ``error``/``error_type`` describe the last exception;
    * ``skipped`` — a dry run planned the point without executing it.
    """

    index: int
    coords: Tuple[Tuple[str, Any], ...]
    labels: Tuple[Tuple[str, Any], ...]
    spec_hash: str
    scenario: str
    result: Optional[ScenarioResult]
    cached: bool
    attempts: int = 1
    error: Optional[str] = None
    error_type: Optional[str] = None
    executed: bool = field(default=True)

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def skipped(self) -> bool:
        return not self.executed and self.result is None and self.error is None

    @property
    def status(self) -> str:
        if self.ok:
            return "cached" if self.cached else "ok"
        return "failed" if self.failed else "skipped"

    @functools.cached_property
    def metrics(self) -> Dict[str, Any]:
        """The result's stored form (:meth:`ScenarioResult.to_dict`): the
        JSON-able dict that ``campaign --json`` prints and the store holds.

        Cached, so repeated reads share one dict.
        """
        if self.result is None:
            raise ValueError(
                f"point {self.index} ({self.scenario}) has no result: {self.status}"
            )
        return self.result.to_dict()


def _outcome(
    point: CampaignPoint, result_dict: Dict[str, Any], *, cached: bool
) -> PointOutcome:
    return PointOutcome(
        index=point.index,
        coords=point.coords,
        labels=point.labels(),
        spec_hash=point.spec_hash(),
        scenario=point.spec.name,
        result=ScenarioResult.from_dict(result_dict),
        cached=cached,
    )


def _completion_outcome(completion: PointCompletion) -> PointOutcome:
    point = completion.point
    if completion.result is not None:
        return PointOutcome(
            index=point.index,
            coords=point.coords,
            labels=point.labels(),
            spec_hash=point.spec_hash(),
            scenario=point.spec.name,
            result=ScenarioResult.from_dict(completion.result),
            cached=False,
            attempts=completion.attempts,
        )
    return PointOutcome(
        index=point.index,
        coords=point.coords,
        labels=point.labels(),
        spec_hash=point.spec_hash(),
        scenario=point.spec.name,
        result=None,
        cached=False,
        attempts=completion.attempts,
        error=completion.error,
        error_type=completion.error_type,
        executed=completion.executed,
    )


def run_campaign(
    campaign: CampaignSpec,
    *,
    store: Optional[ExperimentStore] = None,
    progress: Optional[ProgressCallback] = None,
    runtime: Union[str, Runtime] = "serial",
    retries: int = 0,
    reuse_backends: bool = True,
) -> List[PointOutcome]:
    """Execute every point of ``campaign``; return outcomes in point order.

    ``runtime`` selects the execution engine: ``"serial"``, ``"pool"``
    (work-stealing process pool, one worker per CPU), ``"dry"`` (plan only),
    or a :class:`~repro.runtime.runtimes.Runtime` instance such as
    ``LocalPoolRuntime(workers=4)``.  ``retries``
    re-runs a failing point that many extra times before quarantining it as
    a failed outcome — a failure never aborts its siblings, and only
    successful results are persisted, so quarantined points retry on resume.
    ``reuse_backends`` lets workers keep built backends resident across
    points that share a ``backend_hash``, and generated query streams across
    points that share a ``stream_hash`` (bit-identical by contract; disable
    to force a fresh build and stream per point).  When ``store`` is given, points
    already present are served from it, pool workers append fresh results
    directly to per-worker store shards, and serial/dry paths persist
    through the driver.
    """
    if retries < 0:
        raise ValueError(f"retries must be non-negative: {retries}")
    engine = resolve_runtime(runtime)
    points = campaign.points()
    total = len(points)
    outcomes: List[Optional[PointOutcome]] = [None] * total
    done = 0

    def finish(point: CampaignPoint, outcome: PointOutcome) -> None:
        nonlocal done
        outcomes[point.index] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, total)

    pending: List[CampaignPoint] = []
    for point in points:
        record = store.get(point.spec_hash()) if store is not None else None
        if record is not None:
            finish(point, _outcome(point, record["result"], cached=True))
        else:
            pending.append(point)

    config = RuntimeConfig(
        retries=retries,
        reuse_backends=reuse_backends,
        store_root=(
            str(store.root) if store is not None and engine.name == "pool" else None
        ),
    )
    if pending:
        for completion in engine.execute(pending, config):
            point = completion.point
            if store is not None and completion.result is not None:
                if completion.persisted:
                    # The worker already appended to its shard; just adopt the
                    # record into this store's in-memory view.
                    store.register(
                        point.spec,
                        completion.result,
                        index=point.index,
                        coords=point.labels(),
                    )
                else:
                    store.put(
                        point.spec,
                        completion.result,
                        index=point.index,
                        coords=point.labels(),
                    )
            finish(point, _completion_outcome(completion))

    return [outcome for outcome in outcomes if outcome is not None]
