"""Cost/latency frontier of 2- vs 3-tier memory hierarchies.

The paper's Table 1 is a spectrum, not a binary: between DRAM and NAND sit
CXL/DIMM 3DXP and Optane, each with its own latency and $/GB.  With tiers as
first-class objects (:mod:`repro.hierarchy`), "hot rows in DRAM, warm rows
on CXL, cold rows on QLC-class NAND" is just a spec — so this example sweeps
a set of 2- and 3-tier geometries over the same scenario and asks the
frontier question: which configurations are Pareto-optimal in (memory cost,
p99 latency)?

Memory cost is normalised to DRAM-GB equivalents using the Table 1 relative
$/GB column: bytes homed on each tier, plus each tier's row cache, weighted
by that tier's cost factor (mapping tensors are not counted).

The second half demonstrates hotness-ranked row-range placement: a table too
big for fast memory is split so its *measured* hottest rows — profiled from
the scenario's own access trace — live on the fast tier and the cold tail
cascades down, instead of homing the whole table on a slow tier.  That half builds its SDM
by hand: it passes a ``placement=`` computed from the access profile, which
no backend option carries.

Run with:  python examples/tier_study.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ScenarioSpec, Session, SoftwareDefinedMemory, format_table
from repro.core.config import SDMConfig
from repro.hierarchy import (
    compute_tiered_placement,
    hotness_ranking,
    memory_cost_dram_gb,
    pareto_frontier,
    parse_tiers,
)
from repro.workload import QueryGenerator, WorkloadConfig

#: Candidate hierarchies, fastest tier first (tier 0 capacity is the FM
#: placement budget; the row cache is configured separately).
GEOMETRIES = {
    "2-tier nand": "dram:0,nand:1GiB",
    "2-tier optane": "dram:0,optane:1GiB",
    "2-tier cxl": "dram:0,cxl:1GiB",
    "3-tier small-cxl": "dram:128KiB,cxl:256KiB,nand:1GiB",
    "3-tier big-cxl": "dram:128KiB,cxl:1MiB:64KiB,nand:1GiB",
}

ROW_CACHE_BYTES = 128 * 1024


def run_frontier() -> None:
    rows = []
    points = []
    for label, tiers in GEOMETRIES.items():
        spec = ScenarioSpec.from_dict(
            {
                "name": label,
                "model": {"max_rows_per_table": 1024},
                "backend": {
                    "name": "tiered",
                    "options": {
                        "tiers": tiers,
                        "row_cache_capacity_bytes": ROW_CACHE_BYTES,
                    },
                },
                "workload": {"num_queries": 300},
                "serving": {"warmup_queries": 50},
            }
        )
        result = Session(spec).run()
        cost = memory_cost_dram_gb(result.tiers)
        points.append((label, cost, result.latency["p99"]))
        served = {
            tier["technology"]: tier["rows_served"] for tier in result.tiers
        }
        rows.append(
            [
                label,
                round(cost * 1e3, 3),
                round(result.percentile_ms("p99"), 3),
                round(result.achieved_qps, 1),
                " / ".join(str(served[k]) for k in served),
            ]
        )

    # Pareto frontier: no other geometry is cheaper *and* faster.
    frontier = {
        label
        for label, _, _ in pareto_frontier(
            points, cost=lambda p: p[1], latency=lambda p: p[2]
        )
    }
    for row in rows:
        row.append("*" if row[0] in frontier else "")

    print(
        format_table(
            ["geometry", "cost (DRAM-GB x1e-3)", "p99 (ms)", "QPS",
             "rows served per tier", "frontier"],
            rows,
            title="cost/latency frontier: 2- vs 3-tier hierarchies",
        )
    )
    print("* = Pareto-optimal in (memory cost, p99 latency)\n")


def run_hotness_split_demo() -> None:
    """Row-range placement driven by a measured access profile."""
    spec = ScenarioSpec.from_dict(
        {"model": {"max_rows_per_table": 1024}, "workload": {"num_queries": 300}}
    )
    session = Session(spec)
    model = session.model
    user_tables = [name for name, t in model.tables.items() if t.spec.is_user]

    # Profile the scenario's own query stream, rank rows hottest-first.
    hotness = {
        name: hotness_ranking(
            session.access_trace(name), model.table(name).spec.num_rows
        )
        for name in user_tables
    }
    tiers = parse_tiers("dram:96KiB,nand:1GiB")
    ranked = compute_tiered_placement(
        model.table_specs, tiers, granularity="rows", row_hotness=hotness
    )
    unranked = compute_tiered_placement(model.table_specs, tiers, granularity="rows")

    rows = []
    for label, placement in (("hotness-ranked", ranked), ("unranked", unranked)):
        sdm = SoftwareDefinedMemory(
            session.model if label == "hotness-ranked" else Session(spec).model,
            SDMConfig(
                tiers=tiers,
                split_rows=True,
                row_cache_capacity_bytes=16 * 1024,
                pooled_cache_enabled=False,
            ),
            placement=placement,
        )
        generator = QueryGenerator(
            model, WorkloadConfig(item_batch=model.item_batch, num_users=200), seed=0
        )
        for query in generator.generate(300):
            sdm.serve(query.user_indices, 0.0)
            sdm.on_query_complete()
        summary = sdm.tier_summaries()
        total = sum(tier["rows_served"] for tier in summary)
        fast_fraction = summary[0]["rows_served"] / total if total else 0.0
        rows.append(
            [
                label,
                round(fast_fraction, 3),
                summary[1]["ios"],
                round(sdm.stats.ios_per_query, 2),
            ]
        )
    print(
        format_table(
            ["placement", "rows served from FM", "device IOs", "IOs/query"],
            rows,
            title="row-split placement: hotness-ranked vs unranked hot head",
        )
    )
    print(
        "Ranking the split by the measured access profile keeps the hot rows\n"
        "in fast memory, cutting device IOs for the same FM budget.\n"
    )


def main() -> None:
    run_frontier()
    run_hotness_split_demo()


if __name__ == "__main__":
    main()
