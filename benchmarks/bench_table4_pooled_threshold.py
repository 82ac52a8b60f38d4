"""Table 4: pooled-embedding cache hit rate and hit length vs LenThreshold.

Sweeps the minimum-sequence-length knob of the pooled embedding cache; longer
thresholds trade a slightly lower hit rate for longer (more valuable) hits.
"""

from repro import format_table
from repro.core import PooledEmbeddingCache
from repro.dlrm import M1_SPEC, build_scaled_model
from repro.sim.units import MIB
from repro.workload import QueryGenerator, WorkloadConfig

from _util import emit, run_once

THRESHOLDS = (1, 4, 8, 16, 32)
NUM_QUERIES = 2_000


def build_table4():
    model = build_scaled_model(
        M1_SPEC, max_tables_per_group=3, max_rows_per_table=4096, item_batch=1, seed=0
    )
    config = WorkloadConfig(
        item_batch=1,
        num_users=1200,
        user_reuse_probability=0.06,
        sequence_repeat_probability=0.01,
        pooling_factor_jitter=0.8,
    )
    queries = QueryGenerator(model, config, seed=0).generate(NUM_QUERIES)

    rows = []
    for threshold in THRESHOLDS:
        cache = PooledEmbeddingCache(4 * MIB, len_threshold=threshold)
        for query in queries:
            for table_name, indices in query.user_indices.items():
                if not cache.probe_batch(table_name, indices) and cache.eligible(indices):
                    pooled_bytes = 4 * model.table(table_name).spec.dim  # float32
                    cache.put_batch(table_name, indices, pooled_bytes)
        rows.append(
            [threshold, cache.stats.hit_rate * 100.0, cache.stats.average_hit_length]
        )
    return rows


def bench_table4_pooled_threshold(benchmark):
    rows = run_once(benchmark, build_table4)
    emit(
        "Table 4: pooled cache vs LenThreshold (paper: ~4-4.6% hit, avg len 11->76)",
        format_table(
            ["LenThreshold", "hit rate (%)", "avg hit length"],
            rows,
            float_fmt=".2f",
        ),
    )
    hit_rates = [row[1] for row in rows]
    hit_lengths = [row[2] for row in rows]
    # Hit rates stay in the single-digit-percent range and vary mildly.
    assert all(0.5 < rate < 20 for rate in hit_rates)
    # Average hit length grows monotonically with the threshold.
    assert all(b >= a for a, b in zip(hit_lengths, hit_lengths[1:]))
