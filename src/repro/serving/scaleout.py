"""Scale-out serving: sharding user embeddings across helper hosts.

The alternative to SDM for models that exceed host DRAM (Lui et al., 2021):
the user embedding tables are sharded over remote ``HW-S`` hosts and fetched
over the network.  The paper's M2 deployment needs one helper per five
accelerator hosts; scale-out adds power, operational complexity and a larger
failure domain, which is exactly what the SDM configuration avoids
(section 5.2, Table 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.platform import HostPlatform
from repro.serving.power import PowerModel
from repro.sim.units import MICROSECOND


@dataclass(frozen=True)
class ScaleOutPlan:
    """Resource plan for a scale-out deployment of one model."""

    main_platform: HostPlatform
    helper_platform: HostPlatform
    num_main_hosts: int
    num_helper_hosts: int
    remote_fetch_latency: float
    hosts_per_query: float

    @property
    def total_hosts(self) -> int:
        return self.num_main_hosts + self.num_helper_hosts

    def total_power(self, power_model: PowerModel) -> float:
        return (
            power_model.fleet_power(self.main_platform, self.num_main_hosts)
            + power_model.fleet_power(self.helper_platform, self.num_helper_hosts)
        )

    @property
    def failure_domain_factor(self) -> float:
        """How many hosts participate in serving a single query (complexity/
        failure-exposure proxy; 1.0 for a scale-up deployment)."""
        return self.hosts_per_query


def plan_scale_out(
    main_platform: HostPlatform,
    helper_platform: HostPlatform,
    num_main_hosts: int,
    main_hosts_per_helper: float = 5.0,
    user_capacity_bytes: float = 0.0,
    remote_fetch_latency: float = 300 * MICROSECOND,
) -> ScaleOutPlan:
    """Plan a scale-out deployment.

    ``main_hosts_per_helper`` is the paper's "a HW-S on average can serve 5
    HW-AN".  ``user_capacity_bytes`` checks the helpers actually have the DRAM
    to shard the user embeddings.
    """
    if num_main_hosts <= 0:
        raise ValueError(f"num_main_hosts must be positive: {num_main_hosts}")
    if main_hosts_per_helper <= 0:
        raise ValueError(f"main_hosts_per_helper must be positive: {main_hosts_per_helper}")
    num_helpers = max(int(round(num_main_hosts / main_hosts_per_helper)), 1)
    if user_capacity_bytes > 0:
        shard_bytes = user_capacity_bytes  # each helper holds a full replica shard set
        helpers_for_capacity = int(shard_bytes // helper_platform.dram_bytes) + 1
        num_helpers = max(num_helpers, helpers_for_capacity)
    return ScaleOutPlan(
        main_platform=main_platform,
        helper_platform=helper_platform,
        num_main_hosts=num_main_hosts,
        num_helper_hosts=num_helpers,
        remote_fetch_latency=remote_fetch_latency,
        hosts_per_query=1.0 + 1.0,  # the main host plus (at least) one helper
    )
