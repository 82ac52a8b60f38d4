"""The repo's benchmark: workloads, outside-in tracer, checks (see README.md)."""
