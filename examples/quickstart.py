"""Quickstart: serve a scaled-down M1 model through Software Defined Memory.

Declares the scenario once as a :class:`repro.ScenarioSpec` — a laptop-scale
M1 with its user tables on two simulated Nand Flash SSDs behind the FM row
cache, serving a synthetic power-law query stream — and runs it through the
:class:`repro.Session` facade.  A second session with the ``dram`` backend
verifies that tiered serving returns the same ranking scores as DRAM-only
serving.

The same scenario runs from the command line:

    python -m repro run --set model.spec=M1 --set backend.name=sdm

Run with:  python examples/quickstart.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import BackendChoice, ScenarioSpec, Session
from repro.sim.units import MIB, format_bytes

QUICKSTART_SPEC = ScenarioSpec(
    name="quickstart-m1",
    # model: scaled-down M1 -- same structure (user/item tables, pooling
    # factors, batched item lookups), row counts shrunk to run in seconds.
    # backend: the default tier list puts the user tables on 2x Nand Flash
    # (repro.core.DEFAULT_TIERS), hot rows cached in FM.
    backend=BackendChoice(
        name="sdm",
        options=dict(
            row_cache_capacity_bytes=4 * MIB,
            pooled_cache_capacity_bytes=1 * MIB,
        ),
    ),
)


def main() -> None:
    session = Session(QUICKSTART_SPEC)
    model = session.model
    print(f"model {model.name}: {len(model.tables)} tables, "
          f"{format_bytes(model.embedding_size_bytes)} of embeddings")

    sdm = session.backend
    print(f"placement: {len(sdm.placement.storage_tables())} tables on SM "
          f"({format_bytes(sdm.sm_footprint_bytes())}), "
          f"FM footprint {format_bytes(sdm.fm_footprint_bytes())}")

    # Verify tiered serving is numerically identical to DRAM-only serving:
    # the same spec with the `dram` backend rebuilds an identical model.
    # Serving computes timings only; a result's scores are computed from
    # the model the first time they are read.
    reference_spec = ScenarioSpec.from_dict(
        {**QUICKSTART_SPEC.to_dict(), "backend": {"name": "dram"}}
    )
    reference = Session(reference_spec)
    for query in session.queries()[:5]:
        np.testing.assert_allclose(
            session.engine.run_query(query).scores,
            reference.engine.run_query(query).scores,
            rtol=1e-4,
            atol=1e-5,
        )
    print("scores from SM-tiered serving match DRAM-only serving")

    # Serve the stream and report steady-state behaviour (QPS, latency
    # percentiles, SLO verdict, cache hit rates) in one structured result.
    result = session.run()
    print()
    print(result.summary_table())


if __name__ == "__main__":
    main()
