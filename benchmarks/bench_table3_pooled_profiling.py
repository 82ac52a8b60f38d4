"""Table 3: pooled-embedding-cache subsequence profiling.

Compares the hit rate and per-query candidate-subsequence count of three
schemes: arbitrary length-10 subsequences, length-10 subsequences restricted
to the hottest indices, and the full-sequence scheme (c = P) the paper
deploys.
"""

from repro import format_table
from repro.core import profile_subsequence_schemes
from repro.dlrm import M1_SPEC

from _util import emit, run_once

NUM_QUERIES = 1_000


def build_table3():
    """Per-query index sequences at production-like table cardinality.

    The scheme comparison is sensitive to cardinality (a scaled-down table
    makes 10-index overlaps trivially common), so the sequences are drawn
    directly from a Zipf distribution over an unscaled number of rows, with
    ~5% of queries repeating an earlier full sequence.
    """
    from repro.sim.rng import make_rng
    from repro.workload import ZipfGenerator

    num_rows = 200_000
    pooling_factor = int(M1_SPEC.user_tables.avg_pooling_factor)
    generator = ZipfGenerator(num_rows, alpha=1.0, seed=0)
    rng = make_rng(0, "table3-repeats")
    sequences = []
    for _ in range(NUM_QUERIES):
        if sequences and rng.random() < 0.05:
            sequences.append(list(sequences[int(rng.integers(len(sequences)))]))
        else:
            sequences.append(generator.sample(pooling_factor, unique=True).tolist())
    profiles = profile_subsequence_schemes(sequences, subsequence_length=10, top_indices=100)
    return [
        [p.scheme, p.hit_rate * 100.0, p.generated_sequences_per_query] for p in profiles
    ]


def bench_table3_pooled_profiling(benchmark):
    rows = run_once(benchmark, build_table3)
    emit(
        "Table 3: pooled embedding subsequence profiling "
        f"({NUM_QUERIES} queries, paper: 26% / 19% / 5%)",
        format_table(
            ["scheme", "hit rate (%)", "generated sequences per query"],
            rows,
            float_fmt=".1f",
        ),
    )
    by_scheme = {row[0]: row for row in rows}
    # Ordering of hit rates and overheads matches the paper's table.
    assert by_scheme["c=10"][1] > by_scheme["c=10, top indices"][1] > by_scheme["c=P"][1]
    assert by_scheme["c=10"][1] > by_scheme["c=P"][1]
    assert 1.0 < by_scheme["c=P"][1] < 20.0  # a few percent of full-sequence repeats
    assert by_scheme["c=P"][2] == 1.0
    assert by_scheme["c=10"][2] > 1000  # combinatorial blow-up
