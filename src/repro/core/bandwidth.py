"""Bandwidth, IOPS and capacity requirement analysis (Equations 1-4 and 8).

These are the planning formulas the paper uses to decide which tables can
live on slow memory, how many SSDs a host needs, and whether SM latency is
hidden behind the item-side work:

* Eq. 1/2 -- memory bandwidth demand ``BW = QPS * sum(B * p_i * d_i)`` with
  separate user and item batch sizes.
* Eq. 3/4 -- the SM time budget: user-embedding fetch time must not exceed
  item-embedding fetch time.
* Eq. 8 -- IOPS demand of the SM tier ``IOPS ∝ QPS * sum(p_i)`` over the
  tables placed on SM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dlrm.model_config import TableProfile


@dataclass(frozen=True)
class BandwidthRequirement:
    """Per-query embedding demand of a model at a given QPS: ``qps`` times
    the bytes per query is Eq. 2's bandwidth, times the user lookups per
    query Eq. 8's IOPS."""

    qps: float
    user_bytes_per_query: float
    item_bytes_per_query: float
    user_lookups_per_query: float
    item_lookups_per_query: float


def bytes_per_query(profiles: Sequence[TableProfile]) -> float:
    """Total embedding bytes read per query (Eq. 2 without the QPS factor)."""
    return sum(profile.bytes_per_query for profile in profiles)


def bandwidth_requirement(profiles: Sequence[TableProfile], qps: float) -> BandwidthRequirement:
    """Aggregate the per-table profiles into a :class:`BandwidthRequirement`."""
    if qps <= 0:
        raise ValueError(f"qps must be positive: {qps}")
    user = [p for p in profiles if p.spec.is_user]
    item = [p for p in profiles if not p.spec.is_user]
    return BandwidthRequirement(
        qps=qps,
        user_bytes_per_query=sum(p.bytes_per_query for p in user),
        item_bytes_per_query=sum(p.bytes_per_query for p in item),
        user_lookups_per_query=sum(p.lookups_per_query for p in user),
        item_lookups_per_query=sum(p.lookups_per_query for p in item),
    )


def iops_requirement(
    profiles: Sequence[TableProfile],
    qps: float,
    cache_hit_rate: float = 0.0,
    sm_table_names: Optional[Iterable[str]] = None,
) -> float:
    """IOPS the SM tier must sustain (Eq. 8), after FM-cache filtering.

    ``sm_table_names`` restricts the sum to the tables actually placed on SM;
    by default all user tables are counted (the paper's placement).
    """
    if qps <= 0:
        raise ValueError(f"qps must be positive: {qps}")
    if not 0.0 <= cache_hit_rate <= 1.0:
        raise ValueError(f"cache_hit_rate must be in [0, 1]: {cache_hit_rate}")
    if sm_table_names is None:
        selected = [p for p in profiles if p.spec.is_user]
    else:
        names = set(sm_table_names)
        selected = [p for p in profiles if p.spec.name in names]
    lookups_per_query = sum(p.lookups_per_query for p in selected)
    return qps * lookups_per_query * (1.0 - cache_hit_rate)


def sm_time_budget(
    profiles: Sequence[TableProfile],
    fast_memory_bandwidth: float,
) -> float:
    """Time budget for the user-embedding fetch (Eq. 3/4).

    The user-side fetch from SM stays off the critical path as long as it
    finishes within the time the item-side fetch takes from fast memory.
    """
    if fast_memory_bandwidth <= 0:
        raise ValueError(f"fast_memory_bandwidth must be positive: {fast_memory_bandwidth}")
    item = [p for p in profiles if not p.spec.is_user]
    item_bytes = sum(p.bytes_per_query for p in item)
    return item_bytes / fast_memory_bandwidth


def required_sm_bandwidth(
    profiles: Sequence[TableProfile],
    fast_memory_bandwidth: float,
) -> float:
    """Minimum SM bandwidth that keeps user fetches within the Eq. 4 budget."""
    budget = sm_time_budget(profiles, fast_memory_bandwidth)
    if budget <= 0:
        raise ValueError("item-side bytes per query is zero; no budget to fit within")
    user_bytes = sum(p.bytes_per_query for p in profiles if p.spec.is_user)
    return user_bytes / budget


def table_bandwidth_summary(
    profiles: Sequence[TableProfile],
) -> List[Tuple[str, bool, int, float]]:
    """Per-table (name, is_user, size_bytes, bytes_per_query) rows (Figure 1)."""
    return [
        (p.spec.name, p.spec.is_user, p.size_bytes, p.bytes_per_query)
        for p in profiles
    ]


def capacity_split(profiles: Sequence[TableProfile]) -> Dict[str, float]:
    """Capacity contributed by user vs item tables (paper: user > 2/3)."""
    user_bytes = float(sum(p.size_bytes for p in profiles if p.spec.is_user))
    item_bytes = float(sum(p.size_bytes for p in profiles if not p.spec.is_user))
    total = user_bytes + item_bytes
    if total == 0:
        raise ValueError("profiles describe no capacity")
    return {
        "user_bytes": user_bytes,
        "item_bytes": item_bytes,
        "user_fraction": user_bytes / total,
        "item_fraction": item_bytes / total,
    }
