"""The tier-chain walk, stated one row at a time — a test oracle.

``reference_fetch_batch(chain, ...)`` takes the arguments of
:meth:`repro.hierarchy.chain.TierChain.plan` plus a start time and serves
the batch the plainest way the semantics can be written down: each row
probes the caches above its home tier in order through
``UnifiedRowCache.get`` under the key ``TierChain.row_keys`` gives it, a
hit is promoted with ``put`` right away, time accrues with ``+=``, tier
statistics are kept by hand, and every miss is read from its home tier
with a one-row ``read_rows_batch`` call once the host walk is done.  It
shares no planning, certificate or array code with the product path, which
must agree with it bit for bit (``tests/test_batched_parity.py``): the
timing, the statistics and every cache's contents.
"""

from typing import Dict, List

import numpy as np

from repro.hierarchy.chain import BatchFetchOutcome, TierChain
from repro.hierarchy.tier import MemoryTier


def _promote(tier: MemoryTier, key, size: int) -> None:
    assert tier.cache is not None
    if tier.cache.put(key, size):
        tier.stats.promoted_rows += 1


def reference_fetch_batch(
    chain: TierChain,
    table_name: str,
    stored,
    start_time: float,
    *,
    row_len: int,
    cache_enabled: bool = True,
) -> BatchFetchOutcome:
    stored = [int(index) for index in stored]
    decision = chain.placement.for_table(table_name)
    home_tiers = [int(tier) for tier in decision.tiers_of_rows(stored)] if stored else []
    keys = chain.row_keys(table_name, stored).tolist()
    cached = [index for index, tier in enumerate(chain.tiers) if tier.cache is not None]
    receivers = {"none": [], "top": cached[:1], "all": cached}[chain.promotion]

    cursor = start_time
    cache_hits = 0
    misses: Dict[int, List[int]] = {}

    # The serial host walk: probes, hits, promotions, fast-tier reads.
    for row, (key, home) in enumerate(zip(keys, home_tiers)):
        served = False
        if cache_enabled:
            for tier_index in cached:
                if tier_index >= home:
                    break
                tier = chain.tiers[tier_index]
                cursor += chain.cache_probe_seconds
                tier.stats.cache_probes += 1
                size = tier.cache.get(key, row_len)
                if size is None:
                    continue
                tier.stats.cache_hits += 1
                tier.stats.rows_served += 1
                tier.stats.bytes_served += size
                # Rows cached below tier 0 still cross that tier's media,
                # and the hit re-enters the faster caches it fell out of.
                cursor += tier.cache_hit_seconds(size)
                for target in receivers:
                    if target < tier_index:
                        _promote(chain.tiers[target], key, size)
                cache_hits += 1
                served = True
                break
        if served:
            continue
        if home == 0:
            fast = chain.tiers[0]
            cursor += chain.fm_lookup_overhead + row_len / chain.fm_bandwidth
            fast.stats.rows_served += 1
            fast.stats.bytes_served += row_len
            continue
        misses.setdefault(home, []).append(row)

    # All misses are in flight together from the end of the walk; tiers in
    # order of first miss, rows in request order.
    io_done = cursor
    reads_by_tier: Dict[int, int] = {}
    for tier_index, rows in misses.items():
        tier = chain.tiers[tier_index]
        for row in rows:
            completions = tier.read_rows_batch(
                table_name, np.array([stored[row]], dtype=np.int64), cursor
            )
            io_done = max(io_done, float(completions[0]))
            if cache_enabled:
                for target in receivers:
                    if target < tier_index:
                        _promote(chain.tiers[target], keys[row], row_len)
        reads_by_tier[tier_index] = len(rows)

    return BatchFetchOutcome(
        completion_time=max(cursor, io_done),
        device_reads=sum(reads_by_tier.values()),
        cache_hits=cache_hits,
        reads_by_tier=reads_by_tier,
    )
