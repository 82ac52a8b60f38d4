"""Figure 5: spatial locality heat map.

The ratio of unique indices to unique 4 KiB blocks (normalised by rows per
block) stays low across access windows and tables: strong temporal locality
does not translate into spatial locality, which is why sub-block reads and a
row cache beat block-granular approaches.
"""

import numpy as np

from repro import format_table
from repro.sim.units import BLOCK_SIZE
from repro.workload import ZipfGenerator, spatial_locality_windows

from _util import emit, run_once

NUM_TABLES = 8
NUM_WINDOWS = 6
ACCESSES_PER_TABLE = 30_000


def build_figure5():
    rows = []
    for table_index in range(NUM_TABLES):
        num_rows = 20_000 + 15_000 * table_index
        row_bytes = 96 + 16 * table_index
        rows_per_block = max(BLOCK_SIZE // row_bytes, 1)
        trace = (
            ZipfGenerator(num_rows, alpha=1.0 + 0.05 * table_index, seed=table_index)
            .sample(ACCESSES_PER_TABLE)
            .tolist()
        )
        ratios = spatial_locality_windows(trace, rows_per_block, num_windows=NUM_WINDOWS)
        rows.append([f"table_{table_index:02d}", *[round(r, 3) for r in ratios]])
    return rows


def bench_fig5_spatial_locality(benchmark):
    rows = run_once(benchmark, build_figure5)
    emit(
        "Figure 5: spatial locality ratios per access window (1.0 = perfect)",
        format_table(
            ["table", *[f"win{w}" for w in range(NUM_WINDOWS)]],
            rows,
            float_fmt=".3f",
        ),
    )
    all_ratios = np.array([row[1:] for row in rows], dtype=float)
    # The paper's heat map is "cool": low spatial locality across the board.
    assert all_ratios.mean() < 0.4
    assert all_ratios.max() <= 1.0
