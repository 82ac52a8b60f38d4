"""Run lint rules over sources, files and directory trees.

The checker owns the three policy decisions the rules themselves stay out of:

* which files count as *library* code (``library_only`` rules — the
  determinism rules — fire only inside the ``repro`` package itself, not in
  examples or tests that may legitimately measure wall-clock time);
* suppression: a ``# lint: ignore[RULE001]`` comment on the offending line
  silences that rule there (``# lint: ignore`` with no bracket silences every
  rule on the line);
* traversal: directories are walked for ``*.py``, hidden directories and
  ``__pycache__`` are skipped.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, get_rules

#: ``# lint: ignore`` or ``# lint: ignore[DET001]`` or
#: ``# lint: ignore[DET001, UNIT001]`` anywhere in a line's comment trailer.
_SUPPRESS = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Z0-9_,\s]+)\])?")

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".mypy_cache", ".pytest_cache"})


class LintSyntaxError(Exception):
    """Raised when a linted file does not parse; carries the location."""

    def __init__(self, path: str, error: SyntaxError) -> None:
        line = error.lineno or 0
        super().__init__(f"{path}:{line}: syntax error: {error.msg}")
        self.path = path
        self.error = error


def is_library_path(path: str) -> bool:
    """Whether ``path`` is part of the ``repro`` package proper.

    Library code must not touch wall clocks or unseeded randomness; examples,
    benchmarks and tests are allowed to (they wrap the library, time it, and
    exercise failure modes).
    """
    parts = Path(path).parts
    return "repro" in parts and "tests" not in parts


def suppressed_rules(line: str) -> Optional[frozenset]:
    """Rule IDs suppressed by the comment on ``line``.

    Returns ``None`` when there is no suppression comment, an empty frozenset
    for a blanket ``# lint: ignore``, and the named IDs otherwise.
    """
    match = _SUPPRESS.search(line)
    if match is None:
        return None
    if match.group(1) is None:
        return frozenset()
    return frozenset(part.strip() for part in match.group(1).split(",") if part.strip())


def _is_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    if not (1 <= finding.line <= len(lines)):
        return False
    rules = suppressed_rules(lines[finding.line - 1])
    if rules is None:
        return False
    return not rules or finding.rule in rules


def lint_source(
    source: str,
    path: str,
    *,
    rules: Optional[Sequence[Rule]] = None,
    is_library: Optional[bool] = None,
) -> List[Finding]:
    """Lint a source string, returning sorted, suppression-filtered findings."""
    if rules is None:
        rules = get_rules(None)
    if is_library is None:
        is_library = is_library_path(path)
    try:
        ctx = FileContext.parse(source, path, is_library=is_library)
    except SyntaxError as error:
        raise LintSyntaxError(path, error) from error
    findings: List[Finding] = []
    for rule in rules:
        if rule.library_only and not is_library:
            continue
        findings.extend(rule.check(ctx))
    findings = [f for f in findings if not _is_suppressed(f, ctx.lines)]
    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(
    path: str, *, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, path, rules=rules)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a deterministic list of ``*.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        elif path.suffix == ".py":
            yield str(path)


def lint_paths(
    paths: Iterable[str], *, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Lint files and directory trees; findings come back globally sorted."""
    if rules is None:
        rules = get_rules(None)
    findings: List[Finding] = []
    for filename in iter_python_files(paths):
        findings.extend(lint_file(filename, rules=rules))
    findings.sort(key=Finding.sort_key)
    return findings
