"""Table 10: SDM hardware sizing for the future model M3.

At 3150 QPS over 2000 user tables with pooling factor 30 and an 80% cache hit
rate, the SM tier must sustain ~36-38 MIOPS, which takes 9-10 Optane SSDs at
4 MIOPS each.
"""

from repro import format_table
from repro.serving import ssds_needed
from repro.storage import optane_ssd_spec

from _util import emit, run_once

QPS = 3150
USER_TABLES = 2000
POOLING_FACTOR = 30
EMB_DIM_BYTES = 512
HIT_RATE = 0.80


def build_table10():
    required_iops = QPS * USER_TABLES * POOLING_FACTOR * (1.0 - HIT_RATE)
    device = optane_ssd_spec()
    num_ssds = ssds_needed(required_iops, device)
    sm_bandwidth = required_iops * EMB_DIM_BYTES
    return {
        "qps": QPS,
        "user_tables": USER_TABLES,
        "pooling_factor": POOLING_FACTOR,
        "emb_dim_bytes": EMB_DIM_BYTES,
        "hit_rate": HIT_RATE,
        "required_miops": required_iops / 1e6,
        "ssd_miops": device.max_read_iops / 1e6,
        "num_ssds": num_ssds,
        "sm_bandwidth_gbps": sm_bandwidth / 1e9,
    }


def bench_table10_m3_sizing(benchmark):
    data = run_once(benchmark, build_table10)
    emit(
        "Table 10: M3 SDM sizing (paper: 36 MIOPS -> 9 Optane SSDs)",
        format_table(
            ["metric", "value"],
            [[key, value] for key, value in data.items()],
            float_fmt=".2f",
        ),
    )
    assert 34 <= data["required_miops"] <= 40
    assert data["num_ssds"] in (9, 10)
