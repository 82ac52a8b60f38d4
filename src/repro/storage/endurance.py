"""Endurance and model-update-interval modelling.

Section 3 of the paper notes that device endurance translates into a bound on
how frequently the embedding tables stored on SM can be refreshed:

    UpdateInterval = 365 * ModelSize / (pDWPD * SMCapacity)

where pDWPD is the physical drive writes per day rating.  Appendix A.3
discusses full vs incremental updates; :class:`EnduranceModel` gives the
rate-based view of the same budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.spec import DeviceSpec

SECONDS_PER_DAY = 86_400.0


def update_interval_days(model_size_bytes: float, dwpd: float, sm_capacity_bytes: float) -> float:
    """Minimum model update interval (days) allowed by endurance.

    Implements the paper's formula ``365 * ModelSize / (pDWPD * SMCapacity)``:
    the denominator is the total write volume per day the devices tolerate
    scaled by the drive's rated lifetime in years (365-day horizon), and the
    numerator is the bytes rewritten per full model update.
    """
    if model_size_bytes <= 0:
        raise ValueError(f"model_size_bytes must be positive: {model_size_bytes}")
    if dwpd <= 0:
        raise ValueError(f"dwpd must be positive: {dwpd}")
    if sm_capacity_bytes <= 0:
        raise ValueError(f"sm_capacity_bytes must be positive: {sm_capacity_bytes}")
    return 365.0 * model_size_bytes / (dwpd * sm_capacity_bytes)


@dataclass(frozen=True)
class EnduranceModel:
    """A device's endurance budget as a sustainable update rate."""

    spec: DeviceSpec

    def min_update_interval_seconds(self, update_bytes: float) -> float:
        """Smallest sustainable interval between updates of ``update_bytes``.

        Writing ``update_bytes`` per interval, the device survives its rated
        lifetime iff ``update_bytes / interval <= dwpd * capacity / day``.
        """
        if update_bytes <= 0:
            raise ValueError(f"update_bytes must be positive: {update_bytes}")
        allowed_bytes_per_day = self.spec.endurance_dwpd * self.spec.capacity_bytes
        return update_bytes / allowed_bytes_per_day * SECONDS_PER_DAY
