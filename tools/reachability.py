"""Check that every public name of ``src/repro`` is reached.

Run from the repository root (CI's ``reachability`` step runs exactly this):

    python tools/reachability.py

A public top-level function or class of ``src/repro`` (package
``__init__`` files aside), and every public method and property of such a
class, must be named from ``src/``, ``benchmarks/``, ``examples/``,
``perf/`` or a CI script that imports ``repro`` -- not counting its own
definition, imports and ``__all__``; ``getattr``/``hasattr`` strings count
-- or be registered by a decorator (top-level names only).  Names in
``tests/`` do not count.  The rule matches bare names, so a method shares
its reach with every attribute of that name.  A name nothing reaches is
deleted with its tests, or allowlisted in :data:`ALLOWED`, by name, with the
ROADMAP item or the test that holds it.

Prints one line per unreached name and per stale ``ALLOWED`` entry and exits
1, or prints a one-line summary and exits 0.
"""

import ast
import pathlib
import re
import textwrap

# Public names nothing reaches, kept on purpose.
ALLOWED = {
    "unregister_backend": "cleanup in tests/test_api_registry.py",
    "backend_registered": "introspection in tests/test_api_registry.py",
    "backend_cache_info": "introspection in tests/test_runtime_executor.py",
    "dequantize_row": "the per-row oracle tests/test_dlrm_quantization.py holds dequantize_rows to",
    "iops_requirement": "bandwidth oracle for ROADMAP 6(d)",
    "bandwidth_requirement": "bandwidth oracle for ROADMAP 6(d)",
    "required_sm_bandwidth": "bandwidth oracle for ROADMAP 6(d)",
    "row_keys": "the per-row keys tests/reference_walk.py holds TierChain.plan's inlined keys to",
    "locate": "the per-row oracle tests/test_properties.py holds BlockLayout.locate_batch to",
    "used_bytes": "the byte count tests/test_cache_soa.py holds SoALRUCache to its LRUCache oracle with",
    "materialised": "the observable tests/test_dlrm_tables_on_demand.py holds a run to reading no table with",
}

SCANNED = ("src", "benchmarks", "examples")
CI_PATH = pathlib.Path(".github", "workflows", "ci.yml")


def reach(node, used, owners=frozenset()):
    """Add to ``used`` every name ``node`` mentions outside the bodies of
    the definitions that carry that name."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if isinstance(node, (ast.Name, ast.Attribute)) and name not in owners:
        used.add(name)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "hasattr"):
        used.update(arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owners = owners | {node.name}
    for child in ast.iter_child_nodes(node):
        reach(child, used, owners)


def public(body):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n for n in body if isinstance(n, kinds) and not n.name.startswith("_")]


def main():
    defined, used = {}, set()
    for root in SCANNED:
        for path in sorted(pathlib.Path(root).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            reach(tree, used)
            if path.parts[:2] != ("src", "repro") or path.name == "__init__.py":
                continue
            for node in public(tree.body):
                # A decorated definition is reached through its registration.
                if not node.decorator_list:
                    defined.setdefault(node.name, str(path))
                if isinstance(node, ast.ClassDef):
                    for method in public(node.body):
                        defined.setdefault(f"{node.name}.{method.name}", str(path))
    # perf/ names its hook targets in strings; CI scripts reach what they import and name.
    perf = " ".join(p.read_text() for p in pathlib.Path("perf").rglob("*.py"))
    used.update(re.findall(r"\w+", perf))
    for script in re.findall(r"<<'PY'\n(.*?)\n *PY\n", CI_PATH.read_text(), re.S):
        tree = ast.parse(textwrap.dedent(script))
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        if any(n.module.startswith("repro") for n in imports):
            reach(tree, used)
            used.update(alias.name for n in imports for alias in n.names)
    bare = {key: key.rpartition(".")[2] for key in defined}
    unreached = sorted(k for k, n in bare.items() if n not in used and n not in ALLOWED)
    problems = [f"{defined[k]}: nothing reaches public {k}" for k in unreached]
    stale = [n for n in ALLOWED if n not in bare.values() or n in used]
    problems += [f"allowlisted {n} is gone or reached" for n in stale]
    print("\n".join(problems) or f"{len(defined)} public names, all reached or allowlisted")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
