"""Table 1: slow-memory technology envelope.

Regenerates the technology comparison the paper uses to motivate Nand Flash
and Optane SSD as the deployed SM options.
"""

from repro import format_table
from repro.sim.units import MICROSECOND
from repro.storage import TABLE1_SPECS

from _util import emit, run_once


def build_table1():
    rows = []
    for spec in TABLE1_SPECS.values():
        rows.append(
            [
                spec.name,
                spec.max_read_iops / 1e6,
                spec.base_read_latency / MICROSECOND,
                spec.endurance_dwpd,
                spec.access_granularity_bytes,
                f"1/{round(1 / spec.relative_cost_per_gb)}",
                spec.sourcing,
            ]
        )
    return rows


def bench_table1_technologies(benchmark):
    rows = run_once(benchmark, build_table1)
    emit(
        "Table 1: SM technology options",
        format_table(
            ["Technology", "IOPS (M)", "Latency (us)", "Endurance (DWPD)", "Granularity (B)", "Cost vs DRAM", "Sourcing"],
            rows,
            float_fmt=".1f",
        ),
    )
    assert len(rows) == 5
