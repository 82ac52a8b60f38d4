"""Cache warmup after model updates (appendix A.4).

After a full model update the SM row cache is cold and per-host performance
drops until the hot rows are re-admitted (the paper observes warmup within a
few minutes).  With rolling updates across a fleet, the transient slowdown is
compensated by over-provisioning capacity:

    extra_capacity = (r * w) / (p * t)

where ``r`` is the fraction of hosts updating at a time, ``w`` the warmup
duration, ``p`` the relative performance during warmup and ``t`` the update
interval.
"""

from __future__ import annotations


def warmup_capacity_overhead(
    updating_fraction: float,
    warmup_minutes: float,
    warmup_performance: float,
    update_interval_minutes: float,
) -> float:
    """Extra serving capacity needed to mask cache warmup during rolling updates.

    The formula is implemented as the paper writes it.  For the paper's
    example (r=10%, w=5 min, p=50%, t=30 min) its prose quotes 1.2%, but the
    formula gives 1/30 ~= 3.3%.
    """
    if not 0.0 < updating_fraction <= 1.0:
        raise ValueError(f"updating_fraction must be in (0, 1]: {updating_fraction}")
    if warmup_minutes <= 0:
        raise ValueError(f"warmup_minutes must be positive: {warmup_minutes}")
    if not 0.0 < warmup_performance <= 1.0:
        raise ValueError(f"warmup_performance must be in (0, 1]: {warmup_performance}")
    if update_interval_minutes <= 0:
        raise ValueError(f"update_interval_minutes must be positive: {update_interval_minutes}")
    if warmup_minutes > update_interval_minutes:
        raise ValueError(
            "warmup cannot take longer than the update interval: "
            f"{warmup_minutes} > {update_interval_minutes}"
        )
    return (updating_fraction * warmup_minutes) / (
        warmup_performance * update_interval_minutes
    )
