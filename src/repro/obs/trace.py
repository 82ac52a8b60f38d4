"""Per-query span tracing on the simulated clock.

The serving stack (:class:`~repro.serving.engine.ServingEngine`,
:class:`~repro.hierarchy.chain.TierChain`,
:class:`~repro.core.sdm.SoftwareDefinedMemory`) emits structured spans —
admission, queue wait, per-tier cache probes, storage-IO waits, dequantise —
against a pluggable :class:`TraceRecorder`.  The default recorder is the
shared :data:`NULL_RECORDER` no-op whose ``enabled`` flag is ``False``; hot
paths guard every emission with ``if recorder.enabled:`` so tracing-off runs
execute exactly the pre-trace instruction stream (the parity tests pin this
down as bit-identical results).

:class:`ChromeTraceRecorder` collects spans in the Chrome trace-event JSON
format (the ``{"traceEvents": [...]}`` container of *complete* ``ph: "X"``
events), which https://ui.perfetto.dev loads directly.  Timestamps are the
*simulated* clock scaled to microseconds.  Host wall time is not recorded
here — see :mod:`repro.obs.profile` for where that is measured.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

#: Simulated seconds → Chrome trace microseconds.
_US = 1e6

#: Track (pid) that carries simulated-time spans.
SIM_PID = 0


class TraceRecorder:
    """No-op base recorder: the zero-overhead default.

    Every emission method is a ``pass``; the class-level ``enabled`` flag
    is ``False`` so instrumented code skips even the argument construction.
    Subclasses that record set ``enabled`` to ``True`` on the instance.

    ``track`` is the thread id spans default to when the caller does not
    pass one; the serving engine points it at the current serving stream
    before dispatching a query so backend-emitted spans nest under the
    stream that is executing them.
    """

    enabled: bool = False
    track: int = 0

    def set_track(self, tid: int) -> None:
        """Route subsequent default-track spans to thread ``tid``."""

    def pause(self) -> None:
        """Suspend span recording (warmup queries are not traced)."""

    def resume(self) -> None:
        """Re-arm span recording after :meth:`pause`."""

    def span(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        *,
        tid: Optional[int] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record one complete span on the simulated clock (seconds)."""

    def instant(
        self,
        name: str,
        category: str,
        time: float,
        *,
        tid: Optional[int] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a zero-duration marker (e.g. a shed query)."""

    def counter(self, name: str, time: float, values: Mapping[str, float]) -> None:
        """Record a counter sample (e.g. admission-queue depth)."""


#: The shared zero-overhead default recorder.
NULL_RECORDER = TraceRecorder()


#: One recorded event: phase, name, category, simulated time (seconds),
#: duration (seconds), track, args.
_Event = Tuple[str, str, Optional[str], float, float, int, Optional[Mapping[str, Any]]]


def _chrome_event(record: _Event) -> Dict[str, Any]:
    """The Chrome trace-event dict of one recorded event."""
    phase, name, category, time, duration, tid, args = record
    event: Dict[str, Any] = {"name": name}
    if phase != "C":
        event["cat"] = category
    event["ph"] = phase
    if phase == "i":
        event["s"] = "t"
    event["ts"] = time * _US
    if phase == "X":
        event["dur"] = duration * _US
    event["pid"] = SIM_PID
    event["tid"] = tid
    if args or phase == "C":
        event["args"] = dict(args or {})
    return event


class ChromeTraceRecorder(TraceRecorder):
    """Collects spans as tuples, exported as Chrome trace-event JSON.

    Events accumulate in memory up to ``max_events``; past the cap new spans
    are counted in ``dropped_events`` instead of stored, so a runaway trace
    degrades instead of exhausting memory.  ``to_chrome_trace`` returns the
    Perfetto-loadable ``{"traceEvents": [...]}`` container with process /
    thread metadata naming the simulated-host tracks.
    """

    def __init__(self, *, max_events: int = 1_000_000) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be positive: {max_events}")
        self.enabled = True
        self.track = 0
        self.max_events = max_events
        self.dropped_events = 0
        self._paused_enabled = True
        self._events: List[_Event] = []
        self._thread_names: Dict[int, str] = {0: "admission"}

    def __len__(self) -> int:
        return len(self._events)

    # ----------------------------------------------------------- recording
    def set_track(self, tid: int) -> None:
        self.track = tid

    def pause(self) -> None:
        self._paused_enabled = self.enabled
        self.enabled = False

    def resume(self) -> None:
        # Restore rather than force True: a recorder the caller switched off
        # stays off across warmup.
        self.enabled = self._paused_enabled

    def name_thread(self, tid: int, name: str) -> None:
        """Label one simulated-host thread track (e.g. ``1`` → ``stream 0``)."""
        self._thread_names[tid] = name

    # span/instant/counter re-check ``enabled`` so pause() holds even for
    # callers that skip the hot-path ``if recorder.enabled:`` guard.  Each
    # stores one tuple, ``args`` by reference: the Chrome event dicts are
    # built, and the seconds scaled, only at export, so a span costs the
    # serve path no dict.
    def span(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        *,
        tid: Optional[int] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if not self.enabled:
            return
        if len(self._events) < self.max_events:
            self._events.append(
                ("X", name, category, start, duration, self.track if tid is None else tid, args)
            )
        else:
            self.dropped_events += 1

    def instant(
        self,
        name: str,
        category: str,
        time: float,
        *,
        tid: Optional[int] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if not self.enabled:
            return
        if len(self._events) < self.max_events:
            self._events.append(
                ("i", name, category, time, 0.0, self.track if tid is None else tid, args)
            )
        else:
            self.dropped_events += 1

    def counter(self, name: str, time: float, values: Mapping[str, float]) -> None:
        if not self.enabled:
            return
        if len(self._events) < self.max_events:
            self._events.append(("C", name, None, time, 0.0, 0, values))
        else:
            self.dropped_events += 1

    # ------------------------------------------------------------- exporting
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Perfetto-loadable trace container (metadata + events)."""
        metadata: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": SIM_PID,
                "tid": 0,
                "args": {"name": "simulated host"},
            }
        ]
        for tid in sorted(self._thread_names):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": SIM_PID,
                    "tid": tid,
                    "args": {"name": self._thread_names[tid]},
                }
            )
        return {
            "traceEvents": metadata + [_chrome_event(event) for event in self._events],
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated seconds x 1e6",
                "dropped_events": self.dropped_events,
            },
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the Chrome trace JSON to ``path`` (parents created)."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_chrome_trace(), indent=2), encoding="utf-8")
        return out


def validate_chrome_trace(trace: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``trace`` is a loadable trace container.

    Checks the structural contract Perfetto's legacy JSON importer relies
    on: a ``traceEvents`` list whose entries carry ``ph``/``pid``/``tid``
    (+ ``ts``/``name`` for non-metadata phases, ``dur`` for complete
    events).  Shared by the golden tests and the CI ``obs-smoke`` job.
    """
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace needs a 'traceEvents' list")
    for index, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for key in ("ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"traceEvents[{index}] lacks {key!r}: {event}")
        phase = event["ph"]
        if phase == "M":
            continue
        for key in ("name", "ts"):
            if key not in event:
                raise ValueError(f"traceEvents[{index}] lacks {key!r}: {event}")
        if phase == "X" and "dur" not in event:
            raise ValueError(f"traceEvents[{index}] is complete but lacks 'dur'")
