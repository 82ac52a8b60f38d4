"""Normalised power accounting for deployment comparisons.

Power (query/watt at acceptable latency) is the paper's primary fleet-level
metric.  The model here mirrors the paper's tables: per-host power is
normalised against the experiment's baseline platform, attached SSDs add a
small fraction, and fleet power is host power times host count (Table 8/9) or
host power divided by utilisation for the multi-tenancy roofline (Table 11).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.platform import HostPlatform


def power_saving(baseline_power: float, candidate_power: float) -> float:
    """Fractional power saving of ``candidate`` relative to ``baseline``."""
    if baseline_power <= 0:
        raise ValueError(f"baseline_power must be positive: {baseline_power}")
    if candidate_power < 0:
        raise ValueError(f"candidate_power must be non-negative: {candidate_power}")
    return 1.0 - candidate_power / baseline_power


@dataclass(frozen=True)
class PowerModel:
    """Computes per-host and fleet power for deployment scenarios."""

    #: Additional relative power per attached SSD when the platform does not
    #: already fold SSD power into its ``relative_power``.
    default_ssd_power_fraction: float = 0.01

    def host_power(self, platform: HostPlatform) -> float:
        """Relative power of one host of this platform, including SSDs."""
        return platform.power_with_ssds

    def fleet_power(self, platform: HostPlatform, num_hosts: float) -> float:
        """Total relative power of a homogeneous fleet."""
        if num_hosts < 0:
            raise ValueError(f"num_hosts must be non-negative: {num_hosts}")
        return self.host_power(platform) * num_hosts

    def utilisation_normalised_power(
        self, platform: HostPlatform, utilisation: float
    ) -> float:
        """Power per unit of useful work (the Table 11 'fleet power' metric).

        A fleet running at 63% utilisation needs ``1 / 0.63`` hosts per unit of
        work compared to a perfectly utilised fleet, so its normalised power is
        ``host_power / utilisation``.
        """
        if not 0.0 < utilisation <= 1.0:
            raise ValueError(f"utilisation must be in (0, 1]: {utilisation}")
        return self.host_power(platform) / utilisation
