"""Workload locality analysis: reproduce the Figure 4/5 characterisation.

Generates a synthetic query stream for a scaled M2-like model, then analyses
(a) the temporal locality of user and item embedding accesses, (b) the
per-host locality gain from user-sticky routing, and (c) the (lack of)
spatial locality across 4 KiB blocks -- the three observations that motivate
a row-granular FM cache over block-granular approaches.

Run with:  python examples/locality_analysis.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import format_table
from repro.dlrm import M2_SPEC, build_scaled_model
from repro.sim.units import BLOCK_SIZE
from repro.workload import (
    QueryGenerator,
    RequestRouter,
    RoutingPolicy,
    WorkloadConfig,
    spatial_locality_windows,
    top_fraction_coverage,
)


def main() -> None:
    model = build_scaled_model(
        M2_SPEC, max_tables_per_group=4, max_rows_per_table=8192, item_batch=4, seed=0
    )
    generator = QueryGenerator(
        model,
        WorkloadConfig(item_batch=4, num_users=500, user_zipf_alpha=1.2, user_reuse_probability=0.8),
        seed=0,
    )
    queries = generator.generate(800)

    # --- temporal locality (Figure 4a/4b) -------------------------------
    rows = []
    for spec in model.table_specs[:6]:
        trace = generator.access_trace(queries, spec.name)
        rows.append(
            [
                spec.name.split("/")[-1],
                "user" if spec.is_user else "item",
                top_fraction_coverage(trace, 0.01),
                top_fraction_coverage(trace, 0.10),
            ]
        )
    print(format_table(
        ["table", "kind", "top-1% coverage", "top-10% coverage"],
        rows,
        title="temporal locality (access share of hottest rows)",
    ))

    # --- per-host locality under sticky routing (Figure 4c) -------------
    user_table = model.user_table_specs[0].name
    global_trace = generator.access_trace(queries, user_table)
    router = RequestRouter(4, RoutingPolicy.USER_STICKY)
    host_queries = max(router.split(queries).values(), key=len)
    host_trace = generator.access_trace(host_queries, user_table)
    print()
    print(format_table(
        ["trace", "unique rows / accesses", "top-10% coverage"],
        [
            ["global", len(set(global_trace)) / len(global_trace), top_fraction_coverage(global_trace, 0.1)],
            ["one host (user-sticky)", len(set(host_trace)) / len(host_trace), top_fraction_coverage(host_trace, 0.1)],
        ],
        title="effect of user-sticky routing on per-host locality",
    ))

    # --- spatial locality (Figure 5) -------------------------------------
    print()
    spatial_rows = []
    for spec in model.user_table_specs[:4]:
        trace = generator.access_trace(queries, spec.name)
        rows_per_block = max(BLOCK_SIZE // spec.row_bytes, 1)
        ratios = spatial_locality_windows(trace, rows_per_block, num_windows=5)
        spatial_rows.append([spec.name.split("/")[-1], *[round(r, 3) for r in ratios]])
    print(format_table(
        ["table", *[f"window {i}" for i in range(5)]],
        spatial_rows,
        title="spatial locality ratio per access window (1.0 = perfect)",
    ))
    mean_ratio = float(np.mean([row[1:] for row in spatial_rows]))
    print(f"\nmean spatial locality ratio: {mean_ratio:.3f} "
          "(low -> row-granular caching and sub-block reads pay off)")


if __name__ == "__main__":
    main()
