"""METRIC001: metric names must be paths into the stored ``ScenarioResult``.

Every metric string -- a :func:`campaign_table` column, a
:func:`compare_runs` / ``MetricSpec`` metric -- is a dotted path into
:meth:`ScenarioResult.to_dict` (``"achieved_qps"``, ``"latency_seconds.p99"``),
checked against that schema by :func:`repro.api.results.metric_path_error`.
``compare_runs`` and ``MetricSpec.parse`` also take a ``:higher``/``:lower``
direction suffix, which is checked and stripped first.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.context import FileContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Callables taking metric paths: the position and keywords the strings
#: travel in, and whether a direction suffix is allowed.
_METRIC_CALLS = {
    "campaign_table": (1, ("metric", "metrics"), False),
    "compare_runs": (None, ("metrics",), True),
    "MetricSpec.parse": (0, (), True),
    "MetricSpec": (0, ("path",), False),
}


def _string_constants(node: ast.AST) -> List[ast.Constant]:
    """String literals inside ``node``: itself, or the items of a literal
    list/tuple/set (non-literal elements are simply skipped)."""
    if isinstance(node, ast.Constant):
        return [node] if isinstance(node.value, str) else []
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return [
            element
            for element in node.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]
    return []


@register
class MetricNameRule(Rule):
    """METRIC001: metric strings must be paths into the stored result."""

    id = "METRIC001"
    title = "unknown ScenarioResult metric path"
    rationale = (
        "campaign_table and compare_runs metrics must be addressable paths "
        "into the stored result.  Both check them before anything runs, but "
        "only when the script gets that far; this rule checks the literals "
        "against the schema statically."
    )
    library_only = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from repro.api.results import metric_path_error

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            tail = name.split(".")[-1]
            dotted_tail = ".".join(name.split(".")[-2:])
            for target, (position, keywords, directed) in _METRIC_CALLS.items():
                if dotted_tail != target and tail != target:
                    continue
                for constant in self._metric_arguments(node, position, keywords):
                    path, direction = constant.value, ""
                    if directed:
                        path, _, direction = constant.value.partition(":")
                    if direction not in ("", "higher", "lower"):
                        yield ctx.finding(
                            self.id,
                            constant,
                            f"metric direction must be 'higher' or 'lower': "
                            f"{constant.value!r}",
                        )
                        continue
                    error = metric_path_error(path)
                    if error is not None:
                        yield ctx.finding(self.id, constant, error)
                break  # a call matches at most one metric signature

    @staticmethod
    def _metric_arguments(node, position, keywords):
        candidates: List[ast.AST] = []
        if position is not None and len(node.args) > position:
            candidates.append(node.args[position])
        for keyword in node.keywords:
            if keyword.arg in keywords:
                candidates.append(keyword.value)
        found: List[ast.Constant] = []
        for candidate in candidates:
            found.extend(_string_constants(candidate))
        return found
