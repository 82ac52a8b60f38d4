"""Rewrite the frozen-oracle goldens from the current tree.

    python tests/golden/regen.py

``serve_parity.json`` and ``io_engine.json`` were first written at the last
commit that still had the per-row serve walk and the per-request IO
submission loop, from those.  The tree must reproduce them exactly
(``tests/test_batched_parity.py``, ``tests/test_storage_io_engine.py``), so
a diff after running this script is a change to the simulated model and
has to be explained in the PR that carries it.
"""

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(GOLDEN_DIR.parent), str(GOLDEN_DIR.parents[1] / "src")]

import test_batched_parity as serve_tests  # noqa: E402
import test_storage_io_engine as io_tests  # noqa: E402


def serve_records() -> dict:
    records = {}
    for name in sorted(serve_tests.VARIANTS):
        sdm = serve_tests.build_sdm(serve_tests.VARIANTS[name])
        records[name] = serve_tests.parity_record(sdm, serve_tests.serve(sdm))
    return records


def write(path: Path, records: dict) -> None:
    """One line per field of each record, so a diff names what moved."""
    blocks = []
    for name in sorted(records):
        fields = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True, separators=(',', ':'))}"
            for key, value in sorted(records[name].items())
        )
        blocks.append(f" {json.dumps(name)}: {{\n{fields}\n }}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {path} ({len(records)} records)")


def main() -> None:
    write(serve_tests.GOLDEN_PATH, serve_records())
    write(io_tests.GOLDEN_PATH, io_tests.golden_records_from_tree())


if __name__ == "__main__":
    main()
