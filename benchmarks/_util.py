"""Shared helpers for the benchmark harness.

Every ``bench_*`` file regenerates one table or figure of the paper.  The
benchmark fixture times a single full run of the experiment (pedantic mode)
and the resulting rows are printed beside the paper's numbers, which each
table's title or the bench's docstring quotes.
"""

from __future__ import annotations

from typing import Callable


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark fixture, return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(title: str, body: str) -> None:
    """Print an experiment's output with a recognisable banner."""
    banner = "=" * max(len(title), 20)
    print(f"\n{banner}\n{title}\n{banner}\n{body}\n")
