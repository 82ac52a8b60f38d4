"""Run state, declared once per class and reset by role.

Each stateful class of the serve stack declares, in a class-level
``STATE_ROLES`` table, the role of every attribute that serving (or a session
attaching to it) mutates:

* :data:`COUNTER` — cumulative statistics;
* :data:`CONTENTS` — cached rows and mapped pages;
* :data:`QUEUE` — anything stamped with simulated time;
* :data:`RNG` — a random stream's position;
* :data:`OBSERVER` — an attached trace recorder, kept by reference;
* :data:`DERIVED` — rebuildable from kept state, never reset.

A class whose state lives only in its children declares ``{}``.  Children are
not declared: they are the attributes holding stateful objects, or lists,
tuples or dicts of them.  :func:`record` keeps the as-built value of every
declared attribute, on an object and every stateful object below it (a
backend calls it once it is built, table load included); :func:`reset` puts
the values of the roles asked for back, visiting each object once.  The
warm-up boundary is ``{QUEUE}``, ``reset_stats`` is ``{COUNTER}`` and a full
restore is :data:`RUN_ROLES`.  The walker runs at those boundaries only.
"""

from __future__ import annotations

import copy
from dataclasses import fields
from typing import Any, ClassVar, Collection, Dict, Iterator, List, Mapping, Set, Tuple, TypeVar

COUNTER = "counter"
CONTENTS = "contents"
QUEUE = "queue"
RNG = "rng"
OBSERVER = "observer"
DERIVED = "derived"

ROLES = frozenset({COUNTER, CONTENTS, QUEUE, RNG, OBSERVER, DERIVED})
#: What a full restore resets: every role but ``DERIVED``.
RUN_ROLES = ROLES - {DERIVED}

#: Instance attribute holding ``(as-built values, names of child attributes)``.
_RECORD = "_as_built"

_C = TypeVar("_C", bound="Counters")


class Counters:
    """Mixin for a stats dataclass whose every field is a cumulative counter."""

    __dataclass_fields__: ClassVar[Dict[str, Any]]

    def merge(self: _C, other: _C) -> _C:
        """Add ``other``'s counters into this one, field by field."""
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))
        return self


_TABLES: Dict[type, Mapping[str, str]] = {}


def roles_of(obj: object) -> Mapping[str, str]:
    """``{attribute: role}`` of ``obj``'s class, merged over its bases."""
    klass = type(obj)
    if klass not in _TABLES:
        merged: Dict[str, str] = {}
        for base in reversed(klass.__mro__):
            merged.update(vars(base).get("STATE_ROLES", {}))
        if not set(merged.values()) <= ROLES:
            raise ValueError(f"{klass.__name__} declares unknown roles: {merged}")
        _TABLES[klass] = merged
    return _TABLES[klass]


def is_stateful(value: object) -> bool:
    """Whether ``value``'s class takes part in the lifecycle."""
    return hasattr(type(value), "STATE_ROLES")


def _stateful_items(value: object) -> List[object]:
    """The stateful objects one attribute holds: the value itself, or the
    items of a list, tuple or dict whose first item is stateful."""
    if is_stateful(value):
        return [value]
    items: Collection[object] = ()
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    if not is_stateful(next(iter(items), None)):
        return []
    return [item for item in items if is_stateful(item)]


def _walk(root: object, discover: bool) -> Iterator[Tuple[object, Tuple[str, ...]]]:
    """Every stateful object from ``root`` down, once, with the names of its
    child attributes: found afresh when ``discover``, else as recorded."""
    seen: Set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        built = None if discover else vars(obj).get(_RECORD)
        if built is None:
            table = roles_of(obj)
            children = tuple(
                name for name, value in vars(obj).items()
                if name not in table and name != _RECORD and _stateful_items(value)
            )
        else:
            children = built[1]
        yield obj, children
        for name in children:
            stack.extend(_stateful_items(getattr(obj, name)))


def _copied(table: Mapping[str, str], named: Mapping[str, Any]) -> Dict[str, Any]:
    """Deep copies of ``named`` under one memo (values sharing an object
    still share one); observers are passed by reference."""
    observers = {name: value for name, value in named.items() if table[name] == OBSERVER}
    values: Dict[str, Any] = copy.deepcopy(
        {name: value for name, value in named.items() if name not in observers}
    )
    values.update(observers)
    return values


def record(root: object) -> None:
    """Keep every declared attribute's current value, derived ones aside, as
    the as-built value of ``root`` and of every stateful object below it."""
    for obj, children in _walk(root, discover=True):
        table = roles_of(obj)
        declared = {name: getattr(obj, name) for name, role in table.items() if role != DERIVED}
        setattr(obj, _RECORD, (_copied(table, declared), children))


def reset(root: object, roles: Collection[str]) -> None:
    """Put back the as-built value of every attribute whose role is in
    ``roles``, on ``root`` and on every stateful object below it."""
    for obj, _ in _walk(root, discover=False):
        table = roles_of(obj)
        built = vars(obj).get(_RECORD)
        if built is None:
            if table:
                raise RuntimeError(f"{type(obj).__name__} was never recorded (state.record)")
            continue
        chosen = {name: value for name, value in built[0].items() if table[name] in roles}
        for name, value in _copied(table, chosen).items():
            setattr(obj, name, value)
