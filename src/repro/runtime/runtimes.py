"""Pluggable campaign runtimes: serial, work-stealing local pool, dry-run.

This is the SimBricks-style split of *how* points execute from *what* they
are (``orchestration/runtime/{local,slurm,dry}.py`` is the exemplar shape):
:func:`~repro.runtime.executor.run_campaign` expands and persists points, a
:class:`Runtime` turns pending points into :class:`PointCompletion` events in
whatever order it finishes them.

Three runtimes ship:

* :class:`SerialRuntime` — points run inline, in point order.
* :class:`LocalPoolRuntime` — every point is submitted individually to a
  :class:`~concurrent.futures.ProcessPoolExecutor` and consumed as it
  completes (true work-stealing: a slow point never head-of-line-blocks its
  siblings' results, progress, or persistence).  Dispatch is
  longest-expected-first (:func:`estimated_cost`), failures retry up to
  ``retries`` times and are then quarantined as structured failure events,
  and an unusable pool (sandboxes that forbid ``fork``, a pool that breaks
  mid-stream) degrades to the serial path for the not-yet-finished remainder.
* :class:`DryRunRuntime` — validates and plans without executing: every
  pending point comes back as a skipped completion carrying only its cost
  estimate.

The headline perf mechanism is **worker-resident backend reuse**: each
process keeps a small cache of built ``(model, backend)`` pairs keyed by
:meth:`~repro.api.spec.ScenarioSpec.backend_hash` (the ``model`` + ``backend``
sections only).  Points that differ only along workload/traffic/serving axes
share a hash, so a worker restores the already-built backend to its
as-constructed state (``backend.restore_pristine()``) and skips model
construction and placement entirely — the dominant cost of small-scenario
grids.  Points that differ along a *backend* axis (a cache-size sweep) miss
on the hash but still share the model: a miss adopts the model of any
resident entry whose ``spec.model`` section is equal and builds only the
backend.  A built model is immutable (table data is a read-only array,
generated once, on the first read of its values), so several resident
backends can serve from one.  The worker keeps the query streams it
generates in the same way: a second LRU with the same limit, keyed by
:meth:`~repro.api.spec.ScenarioSpec.stream_hash` (the ``model`` + ``workload``
sections), so the cells of a rate x cache-size grid that share a replicate
serve one stream instead of regenerating it per cell.  Queries are read-only,
so sharing one is safe.  :func:`clear_backend_cache` drops both.  Reuse is
bit-identical to fresh builds by contract, and the parity tests pin it.
"""

from __future__ import annotations

import os
import warnings
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.api.spec import ScenarioSpec
from repro.runtime.campaign import CampaignPoint
from repro.runtime.store import ExperimentStore

#: Pool-creation / pool-death errors that mean "this runtime cannot execute
#: here", as opposed to a point's own exception (which quarantines the point).
POOL_ERRORS = (BrokenProcessPool, OSError, PermissionError)

#: Built ``(spec.model, model, backend)`` entries resident in this process,
#: keyed by ``spec.backend_hash()``.  Bounded so a backend-axis campaign
#: cannot hold every variant alive at once.
_BACKEND_CACHE: "OrderedDict[str, Tuple[Any, Any, Any]]" = OrderedDict()
_BACKEND_CACHE_LIMIT = 8

#: Generated query streams resident in this process, keyed by
#: ``spec.stream_hash()`` and bounded like the backends.
_STREAM_CACHE: "OrderedDict[str, Any]" = OrderedDict()


def backend_cache_info() -> Tuple[int, Tuple[str, ...]]:
    """(size, keys) of this process's resident-backend cache (tests/tuning)."""
    return len(_BACKEND_CACHE), tuple(_BACKEND_CACHE)


def clear_backend_cache() -> None:
    """Drop every resident backend and query stream (tests; ledger passes)."""
    _BACKEND_CACHE.clear()
    _STREAM_CACHE.clear()


def _remember(cache: "OrderedDict[str, Any]", key: str, value: Any) -> None:
    """Insert ``value`` as the newest entry, evicting the oldest past the limit."""
    cache[key] = value
    while len(cache) > _BACKEND_CACHE_LIMIT:
        cache.popitem(last=False)


def estimated_cost(spec: ScenarioSpec) -> float:
    """Relative wall-clock estimate of one point, for dispatch ordering.

    Wall time is dominated by how many queries are served and how much work
    each carries (the ranked item batch); the offered load only stretches
    *simulated* time.  Closed-loop points additionally replay warmup queries
    inside the measured serve path, so they are not discounted.  The scale is
    arbitrary — only the ordering matters (longest expected first).
    """
    item_batch = spec.workload.item_batch
    if item_batch is None:
        item_batch = spec.model.item_batch if spec.model.item_batch is not None else 1
    return float(spec.workload.num_queries) * float(max(1, item_batch))


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution knobs :func:`run_campaign` hands to the runtime.

    ``store_root`` enables worker-side persistence: pool workers append each
    finished point to their own ``results-<worker>.jsonl`` shard under that
    directory the moment it completes, so persistence never serialises
    through the parent.  ``None`` leaves persistence to the caller.
    """

    retries: int = 0
    reuse_backends: bool = True
    store_root: Optional[str] = None


@dataclass(frozen=True)
class PointCompletion:
    """One point's terminal event, in whatever order the runtime finished it.

    Exactly one of three shapes: executed successfully (``result`` set),
    quarantined after ``attempts`` tries (``error``/``error_type`` set), or
    skipped without executing (``executed=False`` — the dry run).
    ``persisted`` marks results a worker shard already holds on disk, so the
    consumer must not append them again.
    """

    point: CampaignPoint
    result: Optional[Dict[str, Any]]
    attempts: int
    error: Optional[str] = None
    error_type: Optional[str] = None
    persisted: bool = False
    executed: bool = True


class Runtime(Protocol):
    """Turns pending campaign points into completion events.

    ``execute`` yields one :class:`PointCompletion` per point, in completion
    order (not necessarily point order); the caller owns ordering, progress
    and persistence of unpersisted results.
    """

    name: str

    def execute(
        self, points: Sequence[CampaignPoint], config: RuntimeConfig
    ) -> Iterator[PointCompletion]: ...


# --------------------------------------------------------------------------
# The worker entry point (also the serial path, so the exact same function
# body runs everywhere — what keeps serial and pool runs bit-identical).
# --------------------------------------------------------------------------
def run_point(
    spec_dict: Dict[str, Any],
    *,
    reuse: bool = True,
    store_root: Optional[str] = None,
    index: Optional[int] = None,
    coords: Any = None,
) -> Dict[str, Any]:
    """Rebuild the spec, run it (reusing a resident backend when possible),
    optionally persist to this process's store shard, return the result dict.

    Top-level (hence picklable) and dict-in/dict-out by design.  With
    ``reuse`` the process-global backend cache is consulted under
    ``spec.backend_hash()``: a hit restores the built backend to pristine
    state and adopts it, skipping model/backend construction.  A miss adopts
    just the model of a resident entry built from an equal ``spec.model``
    section, if there is one (model construction is a pure function of that
    section and the built model is read-only), builds what is left, and
    caches the result for the next point that shares the hash.  The query
    stream is reused the same way, under ``spec.stream_hash()``.
    """
    # Imported lazily: repro.runtime builds on repro.api, not vice versa, and
    # pool workers re-import this module before anything else.
    from repro.api.session import Session

    spec = ScenarioSpec.from_dict(spec_dict)
    session = Session(spec)
    if reuse:
        key, stream_key = spec.backend_hash(), spec.stream_hash()
        cached = _BACKEND_CACHE.get(key)
        if cached is not None:
            _, model, backend = cached
            backend.restore_pristine()
            session.adopt_backend(model, backend)
            _BACKEND_CACHE.move_to_end(key)
        else:
            for model_choice, model, _ in _BACKEND_CACHE.values():
                if model_choice == spec.model:
                    session.adopt_backend(model)
                    break
        queries = _STREAM_CACHE.get(stream_key)
        if queries is not None:
            session.adopt_queries(queries)
            _STREAM_CACHE.move_to_end(stream_key)
    result: Dict[str, Any] = session.run().to_dict()
    if reuse:
        if key not in _BACKEND_CACHE:
            _remember(_BACKEND_CACHE, key, (spec.model, session.model, session.backend))
        if stream_key not in _STREAM_CACHE:
            _remember(_STREAM_CACHE, stream_key, session.queries())
    if store_root is not None:
        ExperimentStore(store_root).put(
            spec, result, index=index, coords=coords, shard=f"w{os.getpid()}"
        )
    return result


def _attempt_serial(point: CampaignPoint, config: RuntimeConfig) -> PointCompletion:
    """Run one point inline with retries; never persists (caller's job)."""
    attempts = 0
    while True:
        attempts += 1
        try:
            result = run_point(
                point.spec.to_dict(), reuse=config.reuse_backends, store_root=None
            )
        except Exception as error:  # noqa: BLE001 — quarantine, don't crash siblings
            if attempts <= config.retries:
                continue
            return PointCompletion(
                point=point,
                result=None,
                attempts=attempts,
                error=str(error),
                error_type=type(error).__name__,
            )
        return PointCompletion(point=point, result=result, attempts=attempts)


class SerialRuntime:
    """Run every point inline, in point order, with per-point retry."""

    name: ClassVar[str] = "serial"

    def execute(
        self, points: Sequence[CampaignPoint], config: RuntimeConfig
    ) -> Iterator[PointCompletion]:
        for point in points:
            yield _attempt_serial(point, config)


class DryRunRuntime:
    """Plan without executing: every pending point comes back skipped.

    The campaign still expands, validates (bad paths/values fail in
    :class:`~repro.runtime.campaign.CampaignSpec` before any runtime sees
    them) and consults the store, so a dry run answers "what would run, in
    what order, at what estimated cost" for free.
    """

    name: ClassVar[str] = "dry"

    def execute(
        self, points: Sequence[CampaignPoint], config: RuntimeConfig
    ) -> Iterator[PointCompletion]:
        for point in points:
            yield PointCompletion(point=point, result=None, attempts=0, executed=False)


class LocalPoolRuntime:
    """Work-stealing process pool: submit individually, consume as completed.

    Points are dispatched longest-expected-first so the big points start
    while small ones fill the stragglers' shadows, each worker keeps its
    resident-backend cache warm across the points it steals, and every
    completion is yielded the moment it lands — persistence and progress
    never wait for an earlier-indexed sibling.  A pool that cannot start or
    breaks mid-stream degrades to :class:`SerialRuntime` for whatever has
    not finished, with a warning.
    """

    name: ClassVar[str] = "pool"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive: {workers}")
        self.workers = workers if workers is not None else (os.cpu_count() or 2)

    def execute(
        self, points: Sequence[CampaignPoint], config: RuntimeConfig
    ) -> Iterator[PointCompletion]:
        if self.workers == 1 or len(points) <= 1:
            yield from SerialRuntime().execute(points, config)
            return
        order = sorted(points, key=lambda p: (-estimated_cost(p.spec), p.index))
        pool_error: Optional[BaseException] = None
        finished: set[int] = set()
        try:
            pool = ProcessPoolExecutor(max_workers=min(self.workers, len(order)))
        except POOL_ERRORS as error:
            pool_error = error
        else:
            with pool:
                tasks: Dict[Future[Dict[str, Any]], Tuple[CampaignPoint, int]] = {}

                def submit(point: CampaignPoint, attempt: int) -> Optional[BaseException]:
                    try:
                        future = pool.submit(
                            run_point,
                            point.spec.to_dict(),
                            reuse=config.reuse_backends,
                            store_root=config.store_root,
                            index=point.index,
                            coords=point.labels(),
                        )
                    except POOL_ERRORS as error:
                        return error
                    except RuntimeError as error:
                        # "cannot schedule new futures after shutdown" — the
                        # pool died between a failure and its retry.
                        return error
                    tasks[future] = (point, attempt)
                    return None

                for point in order:
                    pool_error = submit(point, 1)
                    if pool_error is not None:
                        break
                while tasks and pool_error is None:
                    done, _ = wait(set(tasks), return_when=FIRST_COMPLETED)
                    for future in done:
                        point, attempt = tasks.pop(future)
                        error = future.exception()
                        if error is None:
                            finished.add(point.index)
                            yield PointCompletion(
                                point=point,
                                result=future.result(),
                                attempts=attempt,
                                persisted=config.store_root is not None,
                            )
                        elif isinstance(error, POOL_ERRORS):
                            pool_error = error
                            break
                        elif attempt <= config.retries:
                            pool_error = submit(point, attempt + 1)
                            if pool_error is not None:
                                break
                        else:
                            finished.add(point.index)
                            yield PointCompletion(
                                point=point,
                                result=None,
                                attempts=attempt,
                                error=str(error),
                                error_type=type(error).__name__,
                            )
        if pool_error is not None:
            # Sandboxes that forbid fork, or a pool that died mid-stream, land
            # here; everything already yielded stays yielded (and persisted),
            # only the remainder re-runs inline.
            warnings.warn(
                f"process pool unavailable ({pool_error!r}); "
                f"falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            remainder = [point for point in points if point.index not in finished]
            yield from SerialRuntime().execute(remainder, config)


#: Name → factory for the CLI and ``run_campaign(runtime="...")``.
RUNTIME_NAMES = ("serial", "pool", "dry")


def resolve_runtime(runtime: Union[str, Runtime]) -> Runtime:
    """Resolve ``run_campaign``'s runtime argument to a Runtime instance.

    A string picks by name (``"pool"`` sizes itself from the CPU count);
    anything else must already be a runtime and is returned as-is.
    """
    if isinstance(runtime, str):
        if runtime == "serial":
            return SerialRuntime()
        if runtime == "dry":
            return DryRunRuntime()
        if runtime == "pool":
            return LocalPoolRuntime()
        raise ValueError(
            f"unknown runtime {runtime!r}; known runtimes: {list(RUNTIME_NAMES)}"
        )
    return runtime


__all__ = [
    "DryRunRuntime",
    "LocalPoolRuntime",
    "POOL_ERRORS",
    "PointCompletion",
    "RUNTIME_NAMES",
    "Runtime",
    "RuntimeConfig",
    "SerialRuntime",
    "backend_cache_info",
    "clear_backend_cache",
    "estimated_cost",
    "resolve_runtime",
    "run_point",
]
