"""``restore_pristine()`` cannot miss state (ROADMAP item 2(d)).

Worker-resident backend reuse promises that a used-then-restored backend is
indistinguishable from a freshly built one.  Instead of listing the state a
restore must rewind — the list every new cache, log or RNG stream silently
falls out of — this walks *everything* reachable from the backend before
serving and after ``restore_pristine()`` and diffs the two snapshots.
"""

from __future__ import annotations

import hashlib
import types
from collections import deque
from enum import Enum
from typing import Any, Dict, Iterator, Tuple

import numpy as np
import pytest

from perf.workloads import WORKLOADS
from repro.api import ScenarioSpec, Session

#: Attribute paths (suffix match) allowed to differ, each with its reason.
#: Nothing else may: add state to ``restore_pristine()``, not to this list,
#: unless a rebuilt value is provably the same function of kept state.
ALLOWED_TO_DIFFER: Dict[str, str] = {
    "._slot_index": (
        "SimulatedDevice's sorted (written LBAs, slots) pair: built lazily on the first "
        "read from _block_slots, which a restore keeps, and dropped by every write — "
        "present or absent, a read resolves the same slots"
    ),
}

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


def snapshot(root: Any) -> Dict[str, str]:
    """``{attribute path: value fingerprint}`` of everything reachable from ``root``.

    Arrays are fingerprinted by their bytes, RNGs by their bit-generator
    state, containers recursively; an object met twice is recorded as an
    alias of its first path, so sharing is part of the snapshot too.
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
            children = list(_children(value))
            flat[path] = f"{type(value).__name__}#{len(children)}"
            stack.extend((path + suffix, child) for suffix, child in reversed(children))
    return flat


def _ledger_spec(workload: str) -> ScenarioSpec:
    return ScenarioSpec.from_dict(WORKLOADS[workload].smoke_spec)


@pytest.mark.parametrize("workload", ["cold-closed", "warm-closed", "tiered-open"])
def test_restored_backend_equals_fresh_backend_attribute_by_attribute(workload):
    session = Session(_ledger_spec(workload))
    backend = session.backend
    fresh = snapshot(backend)
    assert len(fresh) > 200  # the walk really descends into tiers, caches and devices

    assert len(session.queries()) >= 40
    session.run()
    assert snapshot(backend) != fresh  # serving does leave state behind

    backend.restore_pristine()
    restored = snapshot(backend)
    differing = sorted(
        path
        for path in fresh.keys() | restored.keys()
        if fresh.get(path) != restored.get(path)
        and not any(allowed in path for allowed in ALLOWED_TO_DIFFER)
    )
    assert not differing, "\n".join(
        f"{path}: fresh {fresh.get(path)} != restored {restored.get(path)}" for path in differing[:20]
    )


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
