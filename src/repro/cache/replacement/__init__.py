"""Baseline replacement policies.

PriSM layers its core-selection step on top of *any* of these: the policy
defines insertion position, promotion on hit, and an eviction-preference
order; schemes pick victims from that order (possibly restricted to one
core's blocks, which is exactly PriSM's victim-identification step).
"""

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.timestamp_lru import TimestampLRUPolicy
from repro.cache.replacement.dip import BIPPolicy, DIPPolicy, LIPPolicy
from repro.cache.replacement.plru import PLRUPolicy
from repro.cache.replacement.srrip import SRRIPPolicy

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "TimestampLRUPolicy",
    "DIPPolicy",
    "BIPPolicy",
    "LIPPolicy",
    "PLRUPolicy",
    "SRRIPPolicy",
]
