"""Per-layer span tracer for the end-to-end benchmark.

The tracer times each simulator layer from the outside: it replaces the
public entry points listed in :data:`TARGETS` with wrappers that record
one span per call, and puts every original back on exit. Nothing under
``src/`` knows it exists, and a traced run produces the same results,
bit for bit, as an untraced one (``run.py`` checks this by digest).

A layer's *self* time is its spans minus the spans of the wrapped calls
made inside them, minus the calibrated cost of one empty wrapper per call.
That cost is calibrated once per process on an empty function and split
in two: the part outside the span a wrapper records is taken from the
caller's self time, the part inside (reading the clock, forwarding the
call) from the callee's. Self times therefore estimate untraced self
times, and add up to the traced wall time less the tracer's calibrated
cost and the harness code between the driver calls, which
``trace.unattributed_s`` reports.

Usage::

    with Tracer() as tracer:
        ...drive the simulator...
    tracer.spans()   # {layer: {"calls", "total_s", "self_s"}}
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from time import perf_counter

__all__ = ["TARGETS", "Tracer"]

CALL, ITER, HITS, SUBCLASSES, BINDS, RETURNS = (
    "call", "iter", "hits", "subclasses", "binds", "returns",
)

#: ``(layer, module, "Class.attribute" or "function", how)``.
#:
#: - ``call``: one span per call. A function is replaced under every
#:   ``repro`` module name bound to it, which is where callers look it up
#:   (a lazy ``from m import f`` inside a function reads ``m.f`` at call
#:   time).
#: - ``iter``: the attribute returns a generator; one span per item.
#: - ``hits``: like ``call``, and also counts truthy results.
#: - ``subclasses``: ``call`` on the class and on every subclass that
#:   defines the attribute itself.
#: - ``binds``/``returns``: instance-bound hooks. After the named method
#:   runs, the instance attribute it bound (``binds``: the 5th field) or
#:   the function it returned (``returns``) is wrapped as ``call``.
TARGETS = (
    ("workloads.stream", "repro.workloads.benchmark", "AccessStream.next_access", CALL),
    ("workloads.stream", "repro.workloads.phased", "PhasedStream.next_access", CALL),
    ("workloads.stream", "repro.workloads.trace", "Trace.next_access", CALL),
    ("workloads.chunks", "repro.workloads.tenants", "TenantWorkload.chunks", ITER),
    ("workloads.chunks", "repro.workloads.tenants", "TenantWorkload.tenant_chunks", ITER),
    ("workloads.chunks", "repro.workloads.shared", "SharedWorkload.chunks", ITER),
    ("workloads.chunks", "repro.workloads.shared", "SharedWorkload.core_chunks", ITER),
    ("cpu.loop", "repro.cpu.system", "MultiCoreSystem.run", CALL),
    ("cpu.advance", "repro.cpu.core_model", "CoreTimingModel.advance", CALL),
    ("cpu.advance", "repro.cpu.core_model", "CoreTimingModel.advance_local", CALL),
    ("cpu.l1", "repro.cpu.l1", "L1Cache.access", HITS),
    ("cpu.dram", "repro.cpu.memory", "MemoryModel.miss_latency", CALL),
    ("cache.access", "repro.cache.cache", "SharedCache.access", CALL),
    ("cache.batch", "repro.cache.cache", "SharedCache.access_many", CALL),
    ("cache.batch", "repro.cache.vector", "VectorCache.access_many", CALL),
    ("cache.encode", "repro.cache.encode", "encode_accesses", CALL),
    ("cache.encode", "repro.cache.encode", "encode_trace", CALL),
    ("cache.shadow", "repro.cache.shadow", "ShadowTagMonitor._build_observe", RETURNS),
    ("core.victim", "repro.core.manager", "ProbabilisticCacheManager.bind_policy", BINDS,
     "victim_select"),
    ("core.alloc", "repro.partitioning.base", "ManagementScheme.end_interval", SUBCLASSES),
    ("experiments.standalone", "repro.experiments.runner", "standalone_ipcs", CALL),
    ("experiments.standalone", "repro.tenancy.run", "tenant_standalone", CALL),
    ("experiments.standalone", "repro.clustering.scaleout", "shared_standalone", CALL),
    ("experiments.driver", "repro.experiments.runner", "run_workload", CALL),
    ("experiments.driver", "repro.tenancy.run", "run_tenant_workload", CALL),
    ("experiments.driver", "repro.clustering.scaleout", "run_shared_workload", CALL),
    ("telemetry.record", "repro.telemetry.recorder", "TelemetryRecorder.record_interval", CALL),
    ("metrics.missrun", "repro.metrics.tenancy", "MissRunTracker.update", CALL),
    ("clustering.profile", "repro.clustering", "profile_hit_curves", CALL),
    ("clustering.profile", "repro.clustering", "derive_core_map", CALL),
    ("check.belady", "repro.check.belady", "belady_workload_run", CALL),
    ("campaign.fingerprint", "repro.campaign.fingerprint", "spec_fingerprint", CALL),
    ("campaign.wait", "repro.campaign.executor", "iter_isolated", ITER),
    ("campaign.store_write", "repro.campaign.store", "ResultStore.add_result", CALL),
    ("campaign.store_read", "repro.campaign.store", "ResultStore._load", CALL),
    ("campaign.store_read", "repro.campaign.campaign", "Campaign.load", CALL),
    ("campaign.store_read", "repro.campaign.campaign", "Campaign.status", CALL),
    ("campaign.store_read", "repro.campaign.campaign", "Campaign.export_rows", CALL),
    ("campaign.store_read", "repro.campaign.campaign", "Campaign.results", CALL),
)

#: Modules imported before patching, so that names bound by lazy imports
#: inside the drivers exist and get patched too.
PRELOAD = ("repro.experiments.schemes", "repro.campaign.runner")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Context manager that patches :data:`TARGETS` and aggregates spans.

    The empty-wrapper cost is calibrated once, when the tracer is built.
    Patching happens on ``__enter__``; ``__exit__`` restores every
    attribute it replaced. A process forked while the tracer is active
    (the campaign executor's workers) restores the originals in the child,
    so worker runs are untraced.
    """

    def __init__(self) -> None:
        self._frames = [0.0]  # child-time accumulator per open span
        self._records: dict = {}  # layer -> [calls, total_s, self_s]
        self.hits: dict = {}  # layer -> truthy results (``hits`` targets)
        self._undo: list = []
        self._active = False
        self.cost_in_s = self.cost_out_s = 0.0  # the calibration wrapper corrects nothing
        self.cost_in_s, self.cost_out_s = self._calibrate()
        os.register_at_fork(after_in_child=self._restore_in_child)

    # -- wrappers -------------------------------------------------------------

    def _record(self, layer: str) -> list:
        return self._records.setdefault(layer, [0, 0.0, 0.0])

    def wrap(self, layer: str, fn):
        """``fn`` with one span per call recorded under ``layer``."""
        rec = self._record(layer)
        frames = self._frames
        clock = perf_counter
        cost_in, cost_out = self.cost_in_s, self.cost_out_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = frames.pop()
                frames[-1] += span + cost_out
                rec[0] += 1
                rec[1] += span
                rec[2] += span - child - cost_in

        return traced

    def wrap_hits(self, layer: str, fn):
        """Like :meth:`wrap`, also counting truthy results in ``hits``."""
        rec = self._record(layer)
        frames = self._frames
        clock = perf_counter
        cost_in, cost_out = self.cost_in_s, self.cost_out_s
        hits = self.hits
        hits.setdefault(layer, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = frames.pop()
                frames[-1] += span + cost_out
                rec[0] += 1
                rec[1] += span
                rec[2] += span - child - cost_in
            if result:
                hits[layer] += 1
            return result

        return traced

    def wrap_iter(self, layer: str, fn):
        """Generator function ``fn`` with one span per item produced."""
        rec = self._record(layer)
        frames = self._frames
        clock = perf_counter
        cost_in, cost_out = self.cost_in_s, self.cost_out_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frames.append(0.0)
                t0 = clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    span = clock() - t0
                    child = frames.pop()
                    frames[-1] += span + cost_out
                    rec[0] += 1
                    rec[1] += span
                    rec[2] += span - child - cost_in
                yield item

        return traced

    def _calibrate(self, calls: int = 20_000, repeats: int = 7) -> tuple:
        """``(inside, outside)``: seconds one wrapper adds within its span
        and around it, over a bare call (medians of ``repeats``).

        The empty function takes two arguments, the usual shape of the
        traced calls (``access(core, addr)``, ``miss_latency(addr, now)``).
        """

        def empty(a, b):
            pass

        traced = self.wrap("trace.calibrate", empty)
        rec = self._records.pop("trace.calibrate")
        loop = range(calls)
        inside, outside = [], []
        for _ in range(repeats):
            t0 = perf_counter()
            for i in loop:
                pass
            t1 = perf_counter()
            for i in loop:
                empty(i, i)
            t2 = perf_counter()
            spans = rec[1]
            for i in loop:
                traced(i, i)
            t3 = perf_counter()
            spans = rec[1] - spans
            bare_call = (t2 - t1) - (t1 - t0)
            inside.append((spans - bare_call) / calls)
            outside.append(((t3 - t2) - spans - (t1 - t0)) / calls)
        self._frames[0] = 0.0
        return max(statistics.median(inside), 0.0), max(statistics.median(outside), 0.0)

    # -- patching -------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_attr(self, cls, attr: str, make) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def _patch_function(self, fn, wrapped) -> None:
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def _hook_binds(self, layer: str, attr: str, method):
        @functools.wraps(method)
        def hooked(obj, *args, **kwargs):
            result = method(obj, *args, **kwargs)
            setattr(obj, attr, self.wrap(layer, getattr(obj, attr)))
            return result

        return hooked

    def _hook_returns(self, layer: str, method):
        @functools.wraps(method)
        def hooked(*args, **kwargs):
            return self.wrap(layer, method(*args, **kwargs))

        return hooked

    def __enter__(self) -> "Tracer":
        for module in PRELOAD:
            importlib.import_module(module)
        makers = {
            CALL: self.wrap,
            HITS: self.wrap_hits,
            ITER: self.wrap_iter,
            SUBCLASSES: self.wrap,
            BINDS: self._hook_binds,
            RETURNS: self._hook_returns,
        }
        for layer, module_name, target, how, *extra in TARGETS:
            module = importlib.import_module(module_name)
            make = functools.partial(makers[how], layer, *extra)
            if "." not in target:
                fn = getattr(module, target)
                self._patch_function(fn, make(fn))
                continue
            cls_name, attr = target.split(".")
            cls = getattr(module, cls_name)
            owners = (cls, *_subclasses(cls)) if how == SUBCLASSES else (cls,)
            for owner in owners:
                if owner is cls or attr in vars(owner):
                    self._patch_attr(owner, attr, make)
        self._active = True
        return self

    def restore(self) -> None:
        """Put back every attribute replaced by ``__enter__``."""
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)
        self._active = False

    def __exit__(self, *exc) -> None:
        self.restore()

    def _restore_in_child(self) -> None:
        if self._active:
            self.restore()

    # -- results --------------------------------------------------------------

    def spans(self) -> dict:
        """``{layer: {"calls", "total_s", "self_s"}}`` for layers that ran."""
        return {
            layer: {"calls": calls, "total_s": total, "self_s": self_s}
            for layer, (calls, total, self_s) in sorted(self._records.items())
            if calls
        }

    def cost_s(self) -> float:
        """Calibrated cost of all the wrapped calls made so far."""
        calls = sum(rec[0] for rec in self._records.values())
        return calls * (self.cost_in_s + self.cost_out_s)
