"""Check the tree's static invariants: AST lint rules, import layering and a
table of structural guards.

Run from the repository root (CI's ``static-analysis`` job runs exactly this):

    python tools/static_checks.py

Prints one ``path:line:col: ID message`` line per finding and exits 1, or
prints a one-line summary and exits 0.

* :data:`RULES` run over every ``*.py`` file under ``src``, ``examples`` and
  ``benchmarks``.  A rule is one entry: an ID, whether it holds only in
  library code (a path through a ``repro`` directory, outside ``tests``), and
  a function that yields ``(node, message)`` for one parsed :class:`Source`.
  Library results must be a pure function of the ``ScenarioSpec``
  (DET001, DET002); byte sizes go through ``repro.sim.units`` (UNIT001);
  frozen specs stay frozen (FROZEN001); work shipped to a worker process
  pickles (PAR001); the substrate packages import only what :data:`LAYERS`
  lets them (LAYER001).
* :data:`GUARDS` keep deleted names deleted.  A row's pattern is searched in
  each line, and in the path, of every ``*.py`` file under its paths (so a
  row can forbid a module as well as a name); a path that no longer exists
  is a finding too, so a rename cannot switch a row off.
"""

import ast
import os
import pathlib
import re
from typing import Callable, NamedTuple, Tuple

LINTED = ("src", "examples", "benchmarks")


def python_files(root):
    """The ``*.py`` files under ``root`` (a file or a directory), sorted,
    skipping hidden directories and ``__pycache__``."""
    if not os.path.isdir(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.startswith("."))
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield pathlib.PurePath(dirpath, filename).as_posix()


def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain rooted in a plain Name, else
    ``None`` (so ``self.time.x`` and ``f().x`` never resolve)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


class Source:
    """One parsed file: its tree, its nodes in walk order, each node's parent
    and its import aliases (``import numpy as np`` maps ``np`` to ``numpy``;
    relative and star imports are left out)."""

    def __init__(self, path, text):
        self.path = path
        self.tree = ast.parse(text, path)
        self.nodes = list(ast.walk(self.tree))
        self.parents = {}
        self.imports = {}
        for node in self.nodes:
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.partition(".")[0]
                    self.imports[alias.asname or root] = alias.name if alias.asname else root
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name != "*":
                        self.imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def ancestors(self, node):
        """The parent chain of ``node``, nearest first."""
        while node in self.parents:
            node = self.parents[node]
            yield node

    def imported_call(self, call):
        """The qualified name of a call whose root name is an import
        (``np.random.seed`` -> ``numpy.random.seed``), else ``None``, so a
        local called ``time`` or ``random`` never matches."""
        root, dot, rest = (dotted_name(call.func) or "").partition(".")
        if root not in self.imports:
            return None
        return self.imports[root] + dot + rest


# ------------------------------------------------------------ DET001, DET002

#: Wall-clock entry points.  ``time.sleep`` is one: blocking the host thread
#: is never how simulated time advances.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: The one library module whose purpose is host wall-clock measurement;
#: everything else reads the wall clock through its ``wall_seconds()``, whose
#: values may shape profiling output but never simulated results.
WALL_CLOCK_ALLOWED = "repro/obs/profile.py"

#: Module-level numpy RNG entry points (the legacy global stream).
NUMPY_GLOBAL_RANDOM = frozenset(
    {
        "numpy.random.seed",
        "numpy.random.random",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random_sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.poisson",
        "numpy.random.exponential",
        "numpy.random.zipf",
        "numpy.random.binomial",
        "numpy.random.gamma",
        "numpy.random.beta",
    }
)


def wall_clock(src):
    """DET001: simulated time comes from ``sim.clock.SimClock`` and the
    ``Simulator`` event loop, so replay, the parity tests and store-served
    resume stay bit-identical."""
    if src.path.endswith(WALL_CLOCK_ALLOWED):
        return
    for node in src.nodes:
        name = src.imported_call(node) if isinstance(node, ast.Call) else None
        if name in WALL_CLOCK_CALLS:
            yield node, (
                f"wall-clock call {name}(); simulated time must come "
                "from sim.clock.SimClock / the Simulator event loop"
            )


def unseeded_random(src):
    """DET002: every random stream derives from the experiment seed through
    ``sim.rng.make_rng(seed, *keys)``, never from process-global or
    entropy-seeded state."""
    for node in src.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = src.imported_call(node)
        if name is None:
            continue
        if name.startswith("random."):
            yield node, (
                f"stdlib {name}() uses the process-global random stream; "
                "derive a generator with sim.rng.make_rng"
            )
        elif name in NUMPY_GLOBAL_RANDOM:
            yield node, (
                f"module-level {name}() uses numpy's global stream; "
                "derive a generator with sim.rng.make_rng"
            )
        elif name == "numpy.random.RandomState":
            yield node, "legacy numpy.random.RandomState; derive a Generator with sim.rng.make_rng"
        elif name == "numpy.random.default_rng" and not (node.args or node.keywords):
            yield node, (
                "default_rng() without a seed draws from OS entropy; "
                "derive the generator with sim.rng.make_rng(seed, *keys)"
            )


# ------------------------------------------------------------------ FROZEN001

#: Methods of a frozen dataclass that may use ``object.__setattr__`` on self
#: (construction, normalisation and unpickling).
SETATTR_OK_METHODS = frozenset({"__post_init__", "__init__", "__new__", "__setstate__"})

MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_mutable(node, bare_call_only):
    return isinstance(node, (ast.List, ast.Dict, ast.Set)) or (
        isinstance(node, ast.Call)
        and dotted_name(node.func) in MUTABLE_CALLS
        and not (bare_call_only and (node.args or node.keywords))
    )


def frozen_dataclass(src):
    """FROZEN001: a spec is hashed and memoised, so mutating one after
    construction silently invalidates its hash; ``dataclasses.replace``
    derives variants, and ``object.__setattr__`` is for ``__post_init__``.
    A mutable field default is shared by every instance."""
    frozen_methods = set()
    for cls in src.nodes:
        if not isinstance(cls, ast.ClassDef):
            continue
        decorator = next(
            (
                d
                for d in cls.decorator_list
                if dotted_name(d.func if isinstance(d, ast.Call) else d)
                in ("dataclass", "dataclasses.dataclass")
            ),
            None,
        )
        if decorator is None:
            continue
        frozen = isinstance(decorator, ast.Call) and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in decorator.keywords
        )
        for statement in cls.body:
            if frozen and isinstance(statement, FUNCTIONS):
                frozen_methods.add(statement)
                yield from _self_assignments(cls, statement)
            # Fields are the annotated assignments; a bare ``x = []`` is a
            # class attribute, not a field.
            if not isinstance(statement, ast.AnnAssign) or not isinstance(
                statement.target, ast.Name
            ):
                continue
            default = statement.value
            mutable = default is not None and _is_mutable(default, bare_call_only=True)
            if isinstance(default, ast.Call) and dotted_name(default.func) in (
                "field",
                "dataclasses.field",
            ):
                mutable = mutable or any(
                    k.arg == "default" and _is_mutable(k.value, bare_call_only=False)
                    for k in default.keywords
                )
            if mutable:
                yield statement, (
                    f"mutable default for dataclass field {cls.name}.{statement.target.id}; "
                    "use field(default_factory=...)"
                )
    for node in src.nodes:
        if not (isinstance(node, ast.Call) and dotted_name(node.func) == "object.__setattr__"):
            continue
        method = next((a for a in src.ancestors(node) if isinstance(a, FUNCTIONS)), None)
        if method in frozen_methods and method.name in SETATTR_OK_METHODS:
            continue
        where = f" (in {method.name})" if method is not None else ""
        yield node, (
            f"object.__setattr__ outside a frozen dataclass's __post_init__/__setstate__{where}; "
            "this bypasses the freeze — use dataclasses.replace to derive a new instance"
        )


def _self_assignments(cls, method):
    """``self.x = ...`` raises FrozenInstanceError in every method of a
    frozen dataclass, ``__post_init__`` included."""
    if not method.args.args:
        return
    self_name = method.args.args[0].arg
    for node in ast.walk(method):
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
            ):
                yield node, (
                    f"assignment to {self_name}.{target.attr} in frozen dataclass "
                    f"{cls.name}.{method.name}; frozen instances raise FrozenInstanceError "
                    "— use dataclasses.replace (or object.__setattr__ inside __post_init__)"
                )


# -------------------------------------------------------------------- PAR001

#: Methods that ship their first callable argument to another process, on a
#: receiver whose name contains one of POOL_RECEIVERS.
POOL_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply", "apply_async", "starmap"}
)
POOL_RECEIVERS = ("pool", "executor")

#: Constructors whose ``target=`` runs in a child process.
PROCESS_TARGETS = frozenset({"Process", "multiprocessing.Process"})


def _worker_argument(call):
    """The callable ``call`` would ship to another process, if any."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in POOL_METHODS:
        receiver = dotted_name(func.value)
        if receiver is not None and any(part in receiver.lower() for part in POOL_RECEIVERS):
            if call.args:
                return call.args[0]
            for keyword in call.keywords:
                if keyword.arg in ("fn", "func", "function"):
                    return keyword.value
    if dotted_name(func) in PROCESS_TARGETS:
        for keyword in call.keywords:
            if keyword.arg == "target":
                return keyword.value
    return None


def unpicklable_worker(src):
    """PAR001: campaign workers receive plain data and a top-level function;
    a lambda or a nested function handed to a process pool does not pickle,
    and fails only at run time, on hosts that can fork."""
    closures = {
        node.name
        for node in src.nodes
        if isinstance(node, FUNCTIONS)
        and any(isinstance(outer, FUNCTIONS) for outer in src.ancestors(node))
    }
    reported = set()
    for node in src.nodes:
        if not isinstance(node, ast.Call):
            continue
        shipped = _worker_argument(node)
        if shipped is None or shipped in reported:
            continue
        if isinstance(shipped, ast.Lambda):
            reported.add(shipped)
            yield shipped, (
                "lambda shipped to a worker process cannot be pickled; "
                "define a top-level function instead"
            )
        elif isinstance(shipped, ast.Name) and shipped.id in closures:
            reported.add(shipped)
            yield shipped, (
                f"closure {shipped.id!r} (defined inside another function) shipped to a "
                "worker process cannot be pickled; move it to module level"
            )


# ------------------------------------------------------------------- UNIT001

DECIMAL_UNITS = frozenset({"KB", "MB", "GB", "TB"})
BINARY_UNITS = frozenset({"KIB", "MIB", "GIB", "TIB"})

#: Literals that are almost certainly a hand-written byte size, and the
#: ``sim.units`` spelling to use instead.
MAGIC_SIZES = {
    1024: "KIB",
    4096: "4 * KIB",
    8192: "8 * KIB",
    65536: "64 * KIB",
    1024**2: "MIB",
    1024**3: "GIB",
    1024**4: "TIB",
    1_000: "KB",
    1_000_000: "MB",
    1_000_000_000: "GB",
    1_000_000_000_000: "TB",
}

#: Identifier fragments that mark a byte-sized value.  A bare "size" would
#: also match counts such as ``batch_size``.
BYTE_NAME = re.compile(r"(bytes|capacity|footprint|budget)", re.IGNORECASE)


def _identifier(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _bound_name(src, node):
    """The name an expression is bound to or passed as: the nearest
    assignment target, keyword, parameter default or comparison partner,
    through enclosing arithmetic, tuples and lists."""
    child = node
    for parent in src.ancestors(node):
        if isinstance(parent, ast.keyword):
            return parent.arg
        if isinstance(parent, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = parent.targets if isinstance(parent, ast.Assign) else [parent.target]
            if isinstance(parent, ast.AnnAssign):
                return _identifier(parent.target)
            return next((_identifier(t) for t in targets if _identifier(t)), None)
        if isinstance(parent, ast.arguments):
            for args, defaults in (
                (parent.posonlyargs + parent.args, parent.defaults),
                (parent.kwonlyargs, parent.kw_defaults),
            ):
                anchored = args[len(args) - len(defaults) :] if defaults else []
                for arg, default in zip(anchored, defaults):
                    if default is child:
                        return arg.arg
            return None
        if isinstance(parent, ast.Compare):
            names = [_identifier(c) for c in [parent.left, *parent.comparators]]
            return next((name for name in names if name is not None), None)
        if not isinstance(parent, (ast.BinOp, ast.UnaryOp, ast.IfExp, ast.Tuple, ast.List)):
            return None
        child = parent
    return None


def _literal_size(node):
    """The value of an int literal, a ``1 << N`` shift or a product or power
    of int literals (``1024 * 1024``); ``None`` once a Name is involved."""
    if isinstance(node, ast.Constant):
        return node.value if type(node.value) is int else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.Mult, ast.Pow)):
        left, right = _literal_size(node.left), _literal_size(node.right)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.LShift):
            return left << right if right < 64 else None
        if isinstance(node.op, ast.Pow):
            return left**right if abs(right) < 64 else None
        return left * right
    return None


def byte_units(src):
    """UNIT001: a hand-written size invites GiB/GB confusion (1 << 30 for a
    'GB' overstates it by 7 %), and one expression that mixes decimal and
    binary units is almost always wrong."""
    if src.path.endswith("sim/units.py"):
        return  # the module that defines the constants spells them out
    for node in src.nodes:
        # Only expression roots: a literal inside a BinOp is part of a
        # larger idiom, reported at its root, or multiplies a unit constant
        # (``1000 * GB``), which is already using units.
        if not isinstance(node, (ast.Constant, ast.BinOp)) or isinstance(
            src.parents.get(node), ast.BinOp
        ):
            continue
        value = _literal_size(node)
        if value in MAGIC_SIZES:
            name = _bound_name(src, node)
            if name is not None and BYTE_NAME.search(name):
                yield node, (
                    f"magic byte size {value} bound to {name!r}; use "
                    f"sim.units ({MAGIC_SIZES[value]}) or parse_size()"
                )
        if isinstance(node, ast.BinOp):
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            decimal, binary = sorted(names & DECIMAL_UNITS), sorted(names & BINARY_UNITS)
            if decimal and binary:
                yield node, (
                    f"expression mixes decimal ({', '.join(decimal)}) and "
                    f"binary ({', '.join(binary)}) byte units; pick one family"
                )


# ------------------------------------------------------------------ LAYER001

#: The ``repro`` packages each substrate package may import, itself
#: included.  The substrate sits below core, api, serving and runtime, so an
#: import of one of those from here would be a package cycle.
LAYERS = {
    "sim": {"sim"},
    "storage": {"sim", "storage"},
    "cache": {"sim", "cache"},
    "hierarchy": {"sim", "storage", "cache", "hierarchy", "dlrm", "obs"},
}


def layering(src):
    """LAYER001: a substrate package imports only what :data:`LAYERS` lists."""
    match = re.match(r"src/repro/(\w+)/", src.path)
    allowed = LAYERS.get(match.group(1)) if match else None
    if allowed is None:
        return
    for node in src.nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "repro" and not node.level:
            names = [f"repro.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and (len(parts) == 1 or parts[1] not in allowed):
                yield node, (
                    f"repro.{match.group(1)} imports {name}; it may import only "
                    f"repro.{{{','.join(sorted(allowed))}}}"
                )


class Rule(NamedTuple):
    id: str
    library_only: bool
    check: Callable


RULES = (
    Rule("DET001", True, wall_clock),
    Rule("DET002", True, unseeded_random),
    Rule("FROZEN001", False, frozen_dataclass),
    Rule("LAYER001", True, layering),
    Rule("PAR001", False, unpicklable_worker),
    Rule("UNIT001", False, byte_units),
)


def is_library(path):
    """Library code must not touch the wall clock or unseeded randomness;
    examples, benchmarks and tests wrap it, time it and may."""
    parts = pathlib.PurePath(path).parts
    return "repro" in parts and "tests" not in parts


def lint(text, path, rules=RULES):
    """The findings of ``rules`` in one file, sorted by position."""
    src = Source(path, text)
    found = []
    for rule in rules:
        if rule.library_only and not is_library(path):
            continue
        for node, message in rule.check(src):
            found.append((node.lineno, node.col_offset + 1, rule.id, message))
    return [f"{path}:{line}:{col}: {rule} {message}" for line, col, rule, message in sorted(found)]


# -------------------------------------------------------------------- guards


class Guard(NamedTuple):
    pattern: str
    paths: Tuple[str, ...]
    reason: str
    #: The title of the commit that set the row (``git log --grep`` finds it).
    change: str
    allowed_in: Tuple[str, ...] = ()


_RUN = "one wall tracer (perf/trace.py); one pool spelling (LocalPoolRuntime, --parallel N)"
_ARRAYS = "queries carry int64 arrays and per-table bags to the kernels; nothing re-flattens them"
_CHECK = "check_requests parses a query's requests once, at serve; nothing below checks again"
_VALUES = "caches, the tier chain and devices carry keys, lengths and times, never row values"
_ROW_CACHE = "the row cache is two row-keyed LRUs with one batch API and no partitions"

GUARDS = (
    Guard(
        r"wall_profiling|wall_span|_serve_from_sm"
        r"|run_campaign\([^)]*parallel=|\.sweep\([^)]*parallel=",
        ("src", "benchmarks", "examples"),
        _RUN,
        "One run pipeline",
    ),
    Guard(
        re.escape("chain.from_iterable"),
        ("src/repro/dlrm/embedding.py",),
        _ARRAYS,
        "Array-shaped queries",
    ),
    Guard(
        r"List\[List\[int\]\]", ("src/repro/dlrm/inference.py",), _ARRAYS, "Array-shaped queries"
    ),
    Guard(re.escape("list(indices)"), ("src/repro/core/sdm.py",), _ARRAYS, "Array-shaped queries"),
    Guard(
        "cache_contains_batch",
        ("src/repro/hierarchy",),
        "TierChain.plan resolves each row's cache slots once; a membership test would be a second",
        "Query-wide chain walk",
    ),
    Guard(
        r"def (reset_stats|reset_queues|reset_rng|clear_caches?|restore_pristine)\b",
        ("src/repro",),
        "run state is declared once per class (STATE_ROLES) and reset by repro.sim.state; "
        "only the three EmbeddingBackend verbs remain",
        "One state lifecycle",
        allowed_in=("src/repro/dlrm/inference.py",),
    ),
    Guard(
        r"dequantize_rows|pool_bags|\.bag\(|tobytes\(",
        ("src/repro/core", "src/repro/hierarchy", "src/repro/cache", "src/repro/storage"),
        _VALUES,
        "Values on demand",
    ),
    Guard(
        r"read_rows_ndarray|_block_store|write_blocks?\b|_RowPool",
        ("src",),
        _VALUES,
        "Values on demand",
    ),
    Guard(
        r"num_cache_partitions|num_partitions|_probe_keys|batchable|UnifiedCacheConfig|_other_slot",
        ("src",),
        _ROW_CACHE,
        "One row cache",
    ),
    # The user-sticky request router hashes with crc32 too.
    Guard("crc32", ("src/repro/cache",), _ROW_CACHE, "One row cache"),
    Guard(
        r"table_name|_table_ids|_slot_table|_indexes",
        ("src/repro/cache",),
        "TierChain.row_keys numbers every stored row once; nothing in the cache names a table",
        "One row key",
    ),
    Guard(
        r"check_indices|_checked_row_bytes",
        ("src/repro/core/sdm.py", "src/repro/dlrm/inference.py"),
        _CHECK,
        "One check per query",
    ),
    Guard(
        r"\bindices\b.*dtype=np\.int64\)", ("src/repro/core/sdm.py",), _CHECK, "One check per query"
    ),
    Guard(re.escape("np.any(idx"), ("src/repro/dlrm/pruning.py",), _CHECK, "One check per query"),
    Guard(
        r"\brepro[./]lint\b",
        ("src",),
        "the linter is this script; src/repro/lint/ does not exist and nothing imports it",
        "One home for static checks",
    ),
)


def guard_findings(guard):
    pattern = re.compile(guard.pattern)
    for root in guard.paths:
        if not os.path.exists(root):
            yield f"{root}: guard path is gone ({guard.change}: {guard.reason})"
            continue
        for path in python_files(root):
            if path in guard.allowed_in:
                continue
            lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
            for number, line in enumerate([path, *lines]):
                match = pattern.search(line)
                if match:
                    where = f"{path}:{number}:{match.start() + 1}" if number else path
                    yield (
                        f"{where}: GUARD {match.group(0)!r} stays deleted: "
                        f"{guard.reason} ({guard.change})"
                    )


def main():
    findings = []
    for root in LINTED:
        for path in python_files(root):
            findings += lint(pathlib.Path(path).read_text(encoding="utf-8"), path)
    for guard in GUARDS:
        findings += guard_findings(guard)
    print("\n".join(findings) or f"{len(RULES)} rules and {len(GUARDS)} guards, no findings")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
