"""Figure 1: embedding table size vs bytes-per-query skew.

The paper's 140 GB model has 734 tables (445 user tables holding 100 GB); the
majority of capacity needs only low bandwidth.  This bench regenerates the
scatter's summary statistics from the synthetic table profiles.
"""

import numpy as np

from repro import format_table
from repro.core.bandwidth import capacity_split, table_bandwidth_summary
from repro.dlrm import figure1_model_spec
from repro.sim.units import GB

from _util import emit, run_once


def build_figure1():
    spec = figure1_model_spec()
    profiles = spec.table_profiles(seed=0)
    summary = table_bandwidth_summary(profiles)
    split = capacity_split(profiles)

    sizes = np.array([row[2] for row in summary], dtype=float)
    bytes_per_query = np.array([row[3] for row in summary], dtype=float)
    is_user = np.array([row[1] for row in summary])

    # Fraction of total capacity held by tables in the lowest bandwidth
    # quartile -- the "majority of capacity requires low BW" observation.
    bandwidth_threshold = np.percentile(bytes_per_query, 50)
    low_bw_capacity = sizes[bytes_per_query <= bandwidth_threshold].sum() / sizes.sum()

    return {
        "num_tables": len(summary),
        "num_user_tables": int(is_user.sum()),
        "total_size_gb": sizes.sum() / GB,
        "user_size_gb": sizes[is_user].sum() / GB,
        "user_capacity_fraction": split["user_fraction"],
        "low_bw_capacity_fraction": float(low_bw_capacity),
        "median_bytes_per_query": float(np.median(bytes_per_query)),
        "p95_bytes_per_query": float(np.percentile(bytes_per_query, 95)),
    }


def bench_fig1_bandwidth_capacity_skew(benchmark):
    stats = run_once(benchmark, build_figure1)
    emit(
        "Figure 1: table size vs bytes/query (140GB, 734-table model)",
        format_table(
            ["metric", "value"],
            [[key, value] for key, value in stats.items()],
            float_fmt=".3f",
        ),
    )
    # Shape checks mirroring the paper's reading of the figure.
    assert stats["num_tables"] == 734
    assert stats["num_user_tables"] == 445
    assert 100 <= stats["total_size_gb"] <= 180
    assert stats["user_capacity_fraction"] > 0.6
    assert stats["low_bw_capacity_fraction"] > 0.5
