"""Allocation policies: performance goal → target occupancies ``T_i``.

The paper envisions these running in software every interval, reading
performance counters and shadow-tag statistics, and handing eviction
probabilities to the cache controller. Here each policy is a pure function
from an :class:`~repro.core.allocation.base.AllocationContext` snapshot to
a vector of target occupancy fractions; :class:`repro.core.prism.PrismScheme`
converts the targets to probabilities via Eq. 1.
"""

from repro.core.allocation.base import AllocationContext, AllocationPolicy
from repro.core.allocation.cliff import CliffAwarePolicy
from repro.core.allocation.hitmax import HitMaxPolicy
from repro.core.allocation.fairness import FairnessPolicy
from repro.core.allocation.qos import QOSPolicy
from repro.core.allocation.ucp_extended import UCPExtendedPolicy

__all__ = [
    "AllocationContext",
    "AllocationPolicy",
    "CliffAwarePolicy",
    "HitMaxPolicy",
    "FairnessPolicy",
    "QOSPolicy",
    "UCPExtendedPolicy",
]
