"""Multi-tenant web-cache scenario: PriSM as a memcached partitioner.

Maps the paper's machinery onto datacenter key-value caching: tenant →
core, eviction probability → per-tenant memory-reclaim pressure, CPI →
request service cost. See :mod:`repro.tenancy.run` for the replay
driver (shared by the tenant and shared-data trace families) and :mod:`repro.tenancy.perf` for the cost model; workloads live
in :mod:`repro.workloads.tenants`, SLO metrics in
:mod:`repro.metrics.tenancy`, and ``docs/tenancy.md`` ties the scenario
together.
"""

from repro.tenancy.perf import HIT_COST, MISS_COST, TenantPerfProvider
from repro.tenancy.run import (
    run_tenant_workload,
    run_trace_workload,
    tenant_standalone,
    trace_standalone,
)

__all__ = [
    "HIT_COST",
    "MISS_COST",
    "TenantPerfProvider",
    "run_tenant_workload",
    "run_trace_workload",
    "tenant_standalone",
    "trace_standalone",
]
