"""The declared run state is the whole run state (ROADMAP items 2(d) and 3).

Worker-resident backend reuse promises that a used-then-restored backend is
indistinguishable from a freshly built one.  Instead of trusting the
declarations (:mod:`repro.sim.state`) that the reset verbs are derived from,
this walks *everything* reachable from a backend — before serving, after
serving and after each reset — and checks three properties on every variant:

* (i) ``restore_pristine()`` gives a snapshot equal to a fresh backend's,
  except under attributes declared ``derived``;
* (ii) every path that serving changes lies under a declared attribute;
* (iii) ``reset_queues()`` puts every ``queue`` attribute back to its
  as-built value and moves nothing else.
"""

from __future__ import annotations

import hashlib
import types
from collections import deque
from enum import Enum
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np
import pytest

from perf.workloads import WORKLOADS
from repro.api import ScenarioSpec, Session
from repro.sim.state import DERIVED, QUEUE, is_stateful, roles_of

from helpers import POOLED_SDM_OPTIONS

_LEAVES = (type(None), bool, int, float, complex, str, bytes, Enum)
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)


def _digest(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array)
    return f"ndarray{data.shape}{data.dtype}:{hashlib.sha1(data.tobytes()).hexdigest()}"


def _children(value: Any) -> Iterator[Tuple[str, Any]]:
    if isinstance(value, dict):
        # Order-sensitive on purpose: LRU order lives in dict order.
        for position, (key, item) in enumerate(value.items()):
            yield f"[{position}:{key!r}]", item
    elif isinstance(value, (list, tuple, deque)):
        for position, item in enumerate(value):
            yield f"[{position}]", item
    else:
        for name in sorted(getattr(value, "__dict__", ())):
            yield f".{name}", getattr(value, name)
        for klass in type(value).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if hasattr(value, name):
                    yield f".{name}", getattr(value, name)


def snapshot(root: Any, declared: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """``{attribute path: value fingerprint}`` of everything reachable from ``root``.

    Arrays are fingerprinted by their bytes, RNGs by their bit-generator
    state, containers recursively; an object met twice is recorded as an
    alias of its first path, so sharing is part of the snapshot too.  With
    ``declared``, the path of every declared attribute of every stateful
    object met is collected into it with the attribute's role.
    """
    flat: Dict[str, str] = {}
    first_path: Dict[int, str] = {}
    stack = [("backend", root)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, _LEAVES):
            flat[path] = f"{type(value).__name__}:{value!r}"
        elif isinstance(value, np.ndarray):
            flat[path] = _digest(value)
        elif isinstance(value, np.generic):
            flat[path] = f"{value.dtype}:{value!r}"
        elif isinstance(value, np.random.Generator):
            flat[path] = f"rng:{value.bit_generator.state!r}"
        elif isinstance(value, (set, frozenset)):
            flat[path] = f"set:{sorted(map(repr, value))}"
        elif isinstance(value, _OPAQUE):
            flat[path] = f"code:{getattr(value, '__qualname__', getattr(value, '__name__', ''))}"
        elif id(value) in first_path:
            flat[path] = f"alias:{first_path[id(value)]}"
        else:
            first_path[id(value)] = path
            if declared is not None and is_stateful(value):
                declared.update((f"{path}.{name}", role) for name, role in roles_of(value).items())
            children = list(_children(value))
            flat[path] = f"{type(value).__name__}#{len(children)}"
            stack.extend((path + suffix, child) for suffix, child in reversed(children))
    return flat


def _role_at(path: str, declared: Mapping[str, str]) -> Optional[str]:
    """The role of the declared attribute ``path`` lies under, if any."""
    for end, char in enumerate(path):
        if char in ".[" and path[:end] in declared:
            return declared[path[:end]]
    return declared.get(path)


def _ledger_spec(workload: str, **backend: Any) -> ScenarioSpec:
    data = dict(WORKLOADS[workload].smoke_spec)
    if backend:
        data["backend"] = backend
    return ScenarioSpec.from_dict(data)


_COLD = WORKLOADS["cold-closed"].smoke_spec["backend"]["options"]
VARIANTS = {
    "cold-closed": _ledger_spec("cold-closed"),
    "warm-closed": _ledger_spec("warm-closed"),
    "tiered-open": _ledger_spec("tiered-open"),
    # A run attaches a recorder to the backend and its chain.
    "traced": _ledger_spec("tiered-open").replace("telemetry.trace", True),
    "mmap": _ledger_spec("cold-closed", name="sdm", options={**_COLD, "access_path": "mmap"}),
    "pooled": _ledger_spec("cold-closed", name="sdm", options=POOLED_SDM_OPTIONS),
    "dram": _ledger_spec("cold-closed", name="dram", options={}),
}


def _differing(left: Mapping[str, str], right: Mapping[str, str]) -> list:
    return sorted(path for path in left.keys() | right.keys() if left.get(path) != right.get(path))


def _explain(paths, left, right) -> str:
    return "\n".join(f"{path}: {left.get(path)} != {right.get(path)}" for path in paths[:20])


@pytest.fixture(params=sorted(VARIANTS))
def served(request):
    """``(variant, backend, declared, fresh, served)``: one stream served."""
    session = Session(VARIANTS[request.param])
    backend = session.backend
    declared: Dict[str, str] = {}
    fresh = snapshot(backend, declared)
    assert len(session.queries()) >= 40
    session.run()
    return request.param, backend, declared, fresh, snapshot(backend)


def test_restored_backend_equals_fresh_backend_attribute_by_attribute(served):
    variant, backend, declared, fresh, after_run = served
    if variant == "dram":
        assert after_run == fresh  # serving never mutates the DRAM backend
    else:
        # The walk really descends into tiers, caches and devices, and
        # serving does leave state behind.
        assert len(fresh) > 200 and after_run != fresh

    backend.restore_pristine()
    restored = snapshot(backend)
    differing = [p for p in _differing(fresh, restored) if _role_at(p, declared) != DERIVED]
    assert not differing, _explain(differing, fresh, restored)


def test_serving_changes_only_declared_state(served):
    _, _, declared, fresh, after_run = served
    undeclared = [p for p in _differing(fresh, after_run) if _role_at(p, declared) is None]
    assert not undeclared, _explain(undeclared, fresh, after_run)


def test_reset_queues_moves_exactly_the_queue_state(served):
    _, backend, declared, fresh, after_run = served
    backend.reset_queues()
    after_reset = snapshot(backend)
    paths = fresh.keys() | after_run.keys() | after_reset.keys()
    wrong = sorted(
        path
        for path in paths
        if after_reset.get(path)
        != (fresh if _role_at(path, declared) == QUEUE else after_run).get(path)
    )
    assert not wrong, _explain(wrong, after_run, after_reset)


def test_declared_queue_state_exists_on_sdm_backends():
    declared: Dict[str, str] = {}
    snapshot(Session(VARIANTS["mmap"]).backend, declared)
    queues = {path.rsplit(".", 1)[1] for path, role in declared.items() if role == QUEUE}
    assert queues == {"channel_free", "_outstanding_per_device", "_outstanding_per_table", "_fault_times"}


def test_snapshot_sees_arrays_rngs_order_and_aliases():
    class Holder:
        __slots__ = ("slot",)

    rng = np.random.default_rng(0)
    shared = [1, 2]
    holder = Holder()
    holder.slot = np.arange(3)
    root = {"rng": rng, "order": {"a": 1, "b": 2}, "shared": [shared, shared], "holder": holder}
    before = snapshot(root)
    assert before["backend[2:'shared'][1]"] == "alias:backend[2:'shared'][0]"

    rng.random()
    root["order"] = {"b": 2, "a": 1}
    holder.slot[1] = 9
    after = snapshot(root)
    changed = {path.split("]")[0] + "]" for path in before if before[path] != after.get(path)}
    assert changed == {"backend[0:'rng']", "backend[1:'order']", "backend[3:'holder']"}
