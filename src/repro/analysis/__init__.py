"""Statistics shared by the serving stack, tests and benchmarks."""

from repro.analysis.metrics import percentile

__all__ = ["percentile"]
