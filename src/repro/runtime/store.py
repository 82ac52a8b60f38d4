"""On-disk experiment store: completed points, keyed by canonical spec hash.

A store is one run directory::

    <root>/
        campaign.json         # CampaignSpec.to_dict() of the campaign that ran here,
                              # for people: the program reads only the results
        results.jsonl         # records appended by the campaign driver itself
        results-<shard>.jsonl # records appended directly by pool workers

Records are keyed by :meth:`ScenarioSpec.spec_hash`, which is a pure function
of the point's canonical spec JSON — so "this exact experiment already ran"
is a dictionary lookup.  Writers append each record the moment the point
finishes (flushed immediately), which is what makes interrupted campaigns
resumable: a re-run against the same store serves every completed point from
disk and only executes the remainder.  A half-written trailing line from a
killed process is skipped on load rather than poisoning the run.

Sharding exists so parallel runtimes never funnel persistence through the
parent process: each pool worker owns ``results-w<pid>.jsonl`` and appends to
it with no cross-process locking (JSONL appends of < PIPE_BUF bytes are
atomic per POSIX, and distinct shards never contend anyway).  Readers merge
the main file plus every shard in deterministic (name-sorted) order with
last-record-wins per spec hash, so a single-file store written by an older
run stays readable unchanged and mixed stores (serial resume after a
parallel run, or vice versa) just work.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.api.spec import ScenarioSpec

CAMPAIGN_FILE = "campaign.json"
RESULTS_FILE = "results.jsonl"
SHARD_PREFIX = "results-"
SHARD_GLOB = "results-*.jsonl"


class ExperimentStore:
    """Append-only JSONL store of completed scenario points under ``root``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._records: Optional[Dict[str, Dict[str, Any]]] = None

    # ---------------------------------------------------------------- layout
    @property
    def results_path(self) -> Path:
        return self.root / RESULTS_FILE

    @property
    def campaign_path(self) -> Path:
        return self.root / CAMPAIGN_FILE

    def shard_path(self, shard: str) -> Path:
        """Path of one worker shard, e.g. ``shard_path("w123")``."""
        if not shard or "/" in shard or shard != Path(shard).name:
            raise ValueError(f"invalid shard name: {shard!r}")
        return self.root / f"{SHARD_PREFIX}{shard}.jsonl"

    def shard_paths(self) -> List[Path]:
        """Existing worker shards, in deterministic (name-sorted) order."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(SHARD_GLOB))

    def result_paths(self) -> List[Path]:
        """Every results file that exists: the main file first, then shards."""
        paths = [self.results_path] if self.results_path.exists() else []
        paths.extend(self.shard_paths())
        return paths

    def exists(self) -> bool:
        return bool(self.result_paths())

    # ---------------------------------------------------------------- loading
    def records(self) -> Dict[str, Dict[str, Any]]:
        """All stored records, keyed by spec hash (cached after first load).

        Shards merge after the main file, in name-sorted order, with
        last-record-wins per spec hash — the same answer regardless of which
        process happened to append a given point.
        """
        if self._records is None:
            self._records = {}
            for path in self.result_paths():
                with open(path, encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            record = json.loads(line)
                        except json.JSONDecodeError:
                            # A crash mid-append leaves at most one truncated
                            # trailing line; treat that point as not-yet-run.
                            continue
                        key = record.get("spec_hash")
                        if isinstance(key, str):
                            self._records[key] = record
        return self._records

    def __len__(self) -> int:
        return len(self.records())

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self.records()

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.records().values())

    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        return self.records().get(spec_hash)

    # ---------------------------------------------------------------- writing
    @staticmethod
    def _record(
        spec: ScenarioSpec,
        result: Mapping[str, Any],
        *,
        index: Optional[int],
        coords: Any,
    ) -> Dict[str, Any]:
        return {
            "spec_hash": spec.spec_hash(),
            "scenario": spec.name,
            "index": index,
            "coords": [list(pair) for pair in coords] if coords is not None else None,
            "spec": spec.to_dict(),
            "result": dict(result),
        }

    def put(
        self,
        spec: ScenarioSpec,
        result: Mapping[str, Any],
        *,
        index: Optional[int] = None,
        coords: Any = None,
        shard: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Append one completed point and return the stored record.

        The record is durable the moment this returns (written, flushed and
        fsynced), so a campaign killed between points loses nothing.  With
        ``shard`` the record lands in that worker's ``results-<shard>.jsonl``
        instead of the main file.
        """
        record = self._record(spec, result, index=index, coords=coords)
        path = self.shard_path(shard) if shard is not None else self.results_path
        self.root.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.records()[record["spec_hash"]] = record
        return record

    def register(
        self,
        spec: ScenarioSpec,
        result: Mapping[str, Any],
        *,
        index: Optional[int] = None,
        coords: Any = None,
    ) -> Dict[str, Any]:
        """Adopt a record another process already persisted to its shard.

        Updates only this store's in-memory view (no disk write), so the
        driver can serve the point from ``records()`` in the same run without
        re-reading the worker's shard file.
        """
        record = self._record(spec, result, index=index, coords=coords)
        self.records()[record["spec_hash"]] = record
        return record

    # ------------------------------------------------------------- metadata
    def write_campaign(self, campaign_dict: Mapping[str, Any]) -> None:
        """Write ``campaign.json``: what the grid was, for whoever opens the
        directory.  Kept on purpose although nothing reads it back --
        ``--resume`` and ``repro report`` need only the results files."""
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.campaign_path, "w", encoding="utf-8") as handle:
            json.dump(dict(campaign_dict), handle, indent=2, sort_keys=True)
            handle.write("\n")
