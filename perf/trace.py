"""Outside-in tracer: spans at module boundaries, installed from ``perf/``.

The benchmark may not edit ``src/`` and does not use ``repro.obs``; instead a
:class:`Tracer` replaces the public functions named in a hook table with
wrappers that record one span per call.  A hook names its target as
``(module, attribute)`` strings resolved at install time, so a target that a
later refactor removed is *skipped and counted* (``Tracer.missing``) — never
an exception: the end-to-end numbers come from untraced passes and cannot be
broken by a stale hook.

Each span records its name, layer, start, end, parent span and operation id
(the query or campaign point it belongs to).  Spans stay in memory as plain
columns and are written out once, after the traced pass.  Self time — a
span's duration minus the part its child spans cover — is accumulated per
span name while the stack unwinds, so nesting, recursion and exceptions need
no separate tree walk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class Hook:
    """One wrapped boundary.

    ``attribute`` is a module-level name or ``Class.method``.  ``op`` marks
    the call that delimits one operation (a query, a campaign point): the
    outermost such span advances the operation id its descendants inherit.
    ``work`` adds a work count to the span name's total: an ``int`` is the
    index of a positional argument whose ``len`` is counted (rows in a
    batch), ``"result"`` sums the call's integer return value.  ``after`` is
    called as ``after(tracer, args, result)`` once the span has closed, to
    read counters from objects only the call site can reach.
    """

    module: str
    attribute: str
    span: str
    layer: str
    op: bool = False
    work: Union[None, int, str] = None
    after: Optional[Callable[["Tracer", Tuple[Any, ...], Any], None]] = None


@dataclass(frozen=True)
class SpanTotal:
    """Cumulative figures of one span name."""

    layer: str
    calls: int = 0
    self_s: float = 0.0
    none_returns: int = 0
    work: int = 0

    def minus(self, earlier: "SpanTotal") -> "SpanTotal":
        return SpanTotal(
            self.layer,
            self.calls - earlier.calls,
            self.self_s - earlier.self_s,
            self.none_returns - earlier.none_returns,
            self.work - earlier.work,
        )


class Tracer:
    """Records spans around wrapped callables and keeps per-name totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        # Per span name (indexed by name id).
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._is_op: List[bool] = []
        self._calls: List[int] = []
        self._self_s: List[float] = []
        self._nones: List[int] = []
        self._work: List[int] = []
        # Per span (columns, indexed by span id).
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self.span_op: List[int] = []
        # Open spans: their ids and the time their closed children covered.
        self._stack: List[int] = []
        self._child_s: List[float] = []
        self._op_depth = 0
        self.current_op = -1
        #: Free-form counters, filled by ``Hook.after`` callbacks and callers.
        self.counters: Dict[str, float] = {}
        #: ``module:attribute`` of every hook whose target did not resolve.
        self.missing: List[str] = []
        self._installed: List[Tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------ recording
    def _name_id(self, span: str, layer: str, op: bool) -> int:
        known = self._name_ids.get(span)
        if known is not None:
            return known
        self._name_ids[span] = len(self.names)
        self.names.append(span)
        self.layers.append(layer)
        self._is_op.append(op)
        self._calls.append(0)
        self._self_s.append(0.0)
        self._nones.append(0)
        self._work.append(0)
        return len(self.names) - 1

    def _begin(self, name_id: int) -> int:
        if self._is_op[name_id]:
            if self._op_depth == 0:
                self.current_op += 1
            self._op_depth += 1
        span = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.current_op)
        self.span_end.append(0.0)
        self._stack.append(span)
        self._child_s.append(0.0)
        # Stamped last, so the bookkeeping above lands in the parent's self
        # time and not in this span.
        self.span_start.append(self._clock())
        return span

    def _end(self, span: int) -> None:
        now = self._clock()
        self.span_end[span] = now
        duration = now - self.span_start[span]
        name_id = self.span_name[span]
        self._stack.pop()
        self._calls[name_id] += 1
        self._self_s[name_id] += duration - self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration
        if self._is_op[name_id]:
            self._op_depth -= 1

    def wrap(self, function: Callable[..., Any], hook: Hook) -> Callable[..., Any]:
        """Return ``function`` wrapped so every call records one span."""
        name_id = self._name_id(hook.span, hook.layer, hook.op)
        begin, end = self._begin, self._end
        nones, work_totals = self._nones, self._work
        work, after = hook.work, hook.after

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = begin(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                end(span)
            if result is None:
                nones[name_id] += 1
            elif work == "result":
                work_totals[name_id] += result
            if type(work) is int:
                work_totals[name_id] += len(args[work])
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # ----------------------------------------------------------- installing
    def install(self, hooks: Sequence[Hook]) -> None:
        """Replace every resolvable hook target with its traced wrapper."""
        for hook in hooks:
            try:
                owner: Any = importlib.import_module(hook.module)
                *path, leaf = hook.attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{hook.module}:{hook.attribute}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                traced: Any = type(raw)(self.wrap(raw.__func__, hook))
            else:
                traced = self.wrap(raw, hook)
            self._installed.append((owner, leaf, leaf in vars(owner), raw))
            setattr(owner, leaf, traced)

    def uninstall(self) -> None:
        """Put every original back (inherited targets are un-shadowed)."""
        for owner, leaf, own, raw in reversed(self._installed):
            if own:
                setattr(owner, leaf, raw)
            else:
                delattr(owner, leaf)
        self._installed.clear()

    # -------------------------------------------------------------- reading
    def totals(self) -> Dict[str, SpanTotal]:
        """Cumulative totals per span name; subtract two snapshots with
        :meth:`SpanTotal.minus` to get the figures of the calls between."""
        return {
            name: SpanTotal(
                self.layers[i], self._calls[i], self._self_s[i], self._nones[i], self._work[i]
            )
            for i, name in enumerate(self.names)
        }

    def add_counters(self, values: Dict[str, float]) -> None:
        for key, value in values.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def dump(self, path: Path, **extra: Any) -> None:
        """Write the spans (as columns) and counters to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "names": self.names,
            "layers": self.layers,
            "spans": {
                "name": self.span_name,
                "start_s": self.span_start,
                "end_s": self.span_end,
                "parent": self.span_parent,
                "op": self.span_op,
            },
            "counters": self.counters,
            "missing_hooks": self.missing,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def totals_between(
    before: Dict[str, SpanTotal], after: Dict[str, SpanTotal]
) -> Dict[str, SpanTotal]:
    """Totals of the calls made between two :meth:`Tracer.totals` snapshots."""
    return {
        name: total.minus(before[name]) if name in before else total
        for name, total in after.items()
    }
