"""Shared-cache management schemes: the paper's comparison points.

Every scheme plugs into :class:`repro.cache.SharedCache` through the hooks
defined by :class:`~repro.partitioning.base.ManagementScheme`:

- :class:`~repro.partitioning.unmanaged.UnmanagedScheme` — baseline cache
  (LRU / timestamp LRU / DIP decide everything),
- :class:`~repro.partitioning.waypart.WayPartitionScheme` — classic way
  quotas, the enforcement substrate for UCP and the fairness baseline,
- :class:`~repro.partitioning.ucp.UCPScheme` — utility-based cache
  partitioning [14] (UMON + lookahead),
- :class:`~repro.partitioning.pipp.PIPPScheme` — promotion/insertion
  pseudo-partitioning [20],
- :class:`~repro.partitioning.fair_waypart.FairWayPartitionScheme` — the
  way-partitioning fairness policy of Kim et al. [9],
- :class:`~repro.partitioning.vantage.VantageScheme` — set-associative
  adaptation of Vantage [17],
- :class:`~repro.partitioning.tadip.TADIPPolicy` — thread-aware DIP [7]
  (a replacement policy, since TA-DIP fuses allocation into replacement).
"""

from repro.partitioning.base import ManagementScheme
from repro.partitioning.unmanaged import UnmanagedScheme
from repro.partitioning.waypart import WayPartitionScheme
from repro.partitioning.ucp import UCPScheme, lookahead_allocate
from repro.partitioning.pipp import PIPPScheme
from repro.partitioning.fair_waypart import FairWayPartitionScheme
from repro.partitioning.vantage import VantageScheme
from repro.partitioning.tadip import TADIPPolicy

__all__ = [
    "ManagementScheme",
    "UnmanagedScheme",
    "WayPartitionScheme",
    "UCPScheme",
    "lookahead_allocate",
    "PIPPScheme",
    "FairWayPartitionScheme",
    "VantageScheme",
    "TADIPPolicy",
]
