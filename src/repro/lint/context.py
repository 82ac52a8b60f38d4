"""Per-file analysis context shared by every lint rule.

A :class:`FileContext` is built once per file by the checker: the parsed AST,
a parent map (so rules can climb from a literal to its enclosing assignment),
an import-alias map (so ``np.random.seed`` resolves to ``numpy.random.seed``
whatever the file imported numpy as), and the source lines for snippets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.lint.findings import Finding


def build_import_map(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the qualified names they were imported as.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from time import monotonic as mono`` → ``{"mono": "time.monotonic"}``;
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``.
    Star imports and relative imports are ignored — rules that resolve
    qualified names only need absolute stdlib/third-party roots.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                qualified = alias.name if alias.asname else alias.name.partition(".")[0]
                imports[local] = qualified
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def dotted_name(node: ast.AST) -> Optional[str]:
    """The ``a.b.c`` chain of a Name/Attribute expression, or ``None``.

    Only chains rooted in a plain :class:`ast.Name` resolve — ``self.time.x``
    or ``fn().attr`` return ``None``, which keeps qualified-name rules from
    firing on attribute lookups that merely *end* in a suspicious name.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class FileContext:
    """Everything a rule may need to know about one parsed source file."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str]
    is_library: bool
    imports: Dict[str, str] = field(default_factory=dict)
    _parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str, path: str, *, is_library: bool) -> "FileContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(
            path=path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            is_library=is_library,
            imports=build_import_map(tree),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                ctx._parents[child] = parent
        return ctx

    # ----------------------------------------------------------- navigation
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The parent chain of ``node``, nearest first."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def resolve_imported_call(self, node: ast.Call) -> Optional[str]:
        """Qualified name of a call target whose root name is an import,
        through the file's import aliases; ``None`` for any other call.

        ``np.random.seed(0)`` resolves to ``"numpy.random.seed"`` when the
        file did ``import numpy as np``.  Rules matching module APIs use this
        so a local variable that happens to be called ``time`` or ``random``
        cannot false-positive.
        """
        name = dotted_name(node.func)
        if name is None:
            return None
        root, dot, rest = name.partition(".")
        if root not in self.imports:
            return None
        resolved_root = self.imports[root]
        return f"{resolved_root}{dot}{rest}" if dot else resolved_root

    # ------------------------------------------------------------- findings
    def snippet(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            snippet=self.snippet(node),
        )
