"""METRIC001: metric names must exist on ``ScenarioResult``.

Metric strings reach the result schema by two different routes:

* *field* names (``"achieved_qps"``) passed to :func:`campaign_table` —
  checked against the ``ScenarioResult`` dataclass fields via
  :func:`repro.api.results.scenario_metric_error`;
* *result-dict* paths (``"latency_seconds.p99"``) passed to
  :func:`compare_runs` / ``MetricSpec`` — checked against the ``to_dict``
  schema via :func:`repro.api.results.metric_path_error` (an optional
  ``:higher``/``:lower`` direction suffix is stripped first).
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.context import FileContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Callables taking ScenarioResult *field* names, with the positions/keywords
#: the metric strings travel in.
_FIELD_METRIC_CALLS = {
    "campaign_table": (1, ("metric", "metrics")),
}

#: Callables taking result-dict *paths* (MetricSpec form).
_PATH_METRIC_CALLS = {
    "compare_runs": (None, ("metrics",)),
    "MetricSpec.parse": (0, ()),
    "MetricSpec": (0, ("path",)),
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
    """METRIC001: metric strings must name real ScenarioResult metrics."""

    id = "METRIC001"
    title = "unknown ScenarioResult metric name"
    rationale = (
        "campaign_table metrics must be ScenarioResult fields and "
        "compare_runs metrics must be addressable result-dict paths.  Both "
        "are only validated when the (expensive) run reaches the reporting "
        "step; this rule checks the literals against the schema statically."
    )
    library_only = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from repro.api.results import metric_path_error, scenario_metric_error

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            tail = name.split(".")[-1]
            dotted_tail = ".".join(name.split(".")[-2:])
            for table, (position, keywords) in _FIELD_METRIC_CALLS.items():
                if tail != table:
                    continue
                for constant in self._metric_arguments(node, position, keywords):
                    error = scenario_metric_error(constant.value)
                    if error is not None:
                        yield ctx.finding(self.id, constant, error)
            for target, (position, keywords) in _PATH_METRIC_CALLS.items():
                if name != target and dotted_tail != target and tail != target:
                    continue
                for constant in self._metric_arguments(node, position, keywords):
                    path = constant.value.partition(":")[0]
                    direction = constant.value.partition(":")[2]
                    if direction and direction not in ("higher", "lower"):
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
                break  # a call matches at most one path-metric signature

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
