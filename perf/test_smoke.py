"""The benchmark runs end to end at smoke size and emits every declared metric.

Deliberately *not* asserted: ``bench.missing_hooks == 0``.  Later changes may
not edit ``perf/``, so a refactor that removes a hooked function must be able
to land; the hook is then skipped and counted.
"""

from __future__ import annotations

import json
import math

import pytest

from perf import run


@pytest.fixture(scope="module")
def manifest():
    return run.manifest()


def test_manifest_names_the_catalogue(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert manifest["paths"] == ["perf"]
    assert "setup_s" in [m["name"] for m in manifest["end_to_end"]]


def test_smoke_ledger_emits_every_metric_finite(manifest, capsys):
    assert run.main(["--smoke"]) == 0
    printed = capsys.readouterr().out
    with open(run.OUT / "smoke.json", encoding="utf-8") as handle:
        ledger = json.load(handle)
    for name in run.WORKLOADS:
        measured = ledger["workloads"][name]
        for kind in ("end_to_end", "per_layer"):
            for metric in manifest[kind]:
                value = measured[kind][metric["name"]]
                assert math.isfinite(value), (name, metric["name"], value)
                assert metric["name"] in printed
        shares = sum(v for k, v in measured["per_layer"].items() if k.endswith(".share"))
        assert shares == pytest.approx(1.0, abs=0.02)
        assert (run.OUT / f"{name}.trace.json").exists()
    assert "ops_failed = 0" in printed
    assert "model unvalidated" in printed


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_single_run_prints_the_contract_object_last(manifest, capsys, trace, kind):
    assert run.main(["--workload", "dram-dense", "--seed", "7", "--trace", str(trace), "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in manifest[kind]]
    for metric in manifest[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
