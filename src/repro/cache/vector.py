"""The vector cache backend: numpy-backed state, batch access processing.

:class:`VectorCache` represents every set's state as flat arrays — per-set
tag/owner/age matrices of shape ``(num_sets, assoc)``, a per-set valid-way
count, and (under PriSM) a per-set-per-core residency-count matrix — and
replays a pre-encoded trace (:mod:`repro.cache.encode`). It is certified
**bit-exact** against the classic :class:`~repro.cache.cache.SharedCache`
and the naive :mod:`repro.check.reference` oracle by ``repro-sim check
fuzz --backend vector`` for every supported scheme.

Routes
------

``access_many`` replays a batch by one of two routes over the same arrays:
**per access** (``_replay_scalar`` → ``_scalar_access``, in slices of
``_SLICE`` accesses, reading and writing the arrays through flat
memoryviews bound once at construction) or **batch** (``_chunk_strict`` /
``_chunk_free``, described below). :attr:`VectorCache.per_access` picks
the route; its docstring and ``docs/simulator.md`` ("Backends") give the
rule and the measurements behind it.

Recency encoding
----------------

The classic engine keeps recency as an intrusive doubly-linked list. Every
supported policy only ever inserts at the list ends (MRU promotion/fill, or
DIP's LRU-insert), so the order is exactly reproduced by *stamps*: a
promotion or MRU fill stamps the block with a strictly increasing counter
(the global access position), an LRU-insert stamps it from a strictly
decreasing negative counter. "LRU-most block" is then "minimum stamp", and
a full recency walk is an argsort — no list exists at all.

Batch discipline (why results stay bit-exact)
---------------------------------------------

Accesses are processed in chunks. Against the chunk-start state the engine
predicts hit/miss and way per access with one vectorised lookup; the
prediction for an access is exact unless an *earlier* access in the chunk
mutated its set, and within a chunk only misses mutate a set's contents.
Hence the taint rule: let ``first_miss[s]`` be the position of set ``s``'s
first predicted miss in the chunk — every access with
``position > first_miss[set]`` is **tainted** and is replayed through the
scalar path in exact global order; everything else is *clean* and can be
applied out of order:

- clean hits touch only their own block's stamp (``np.maximum.at`` makes
  duplicate hits last-writer-wins) and never feed a victim choice before
  their set's first miss, so a bulk scatter is exact;
- clean misses are each the first miss of their set in the chunk, so their
  victim choices read exact state and at most one per set exists — they
  are processed as vectorised batches *in global order*, interleaved with
  the tainted scalar replays.

RNG draw-order discipline
-------------------------

PriSM's core-selection must consume ``make_rng(seed, "prism-manager")`` in
exactly the classic per-replacement order (the fallback draws one extra
value). The engine pre-pulls draws from the manager's RNG into a FIFO and
consumes them strictly sequentially: batched victim sampling maps a slice
of the FIFO through ``np.searchsorted`` (= ``bisect_right`` per draw), and
whenever a fallback (or an interval boundary, which re-installs ``E``)
perturbs the mapping, the remainder of the slice is re-mapped from the
next FIFO position. DIP's bimodal stream is consumed only on the scalar
path, which runs in exact miss order by construction.

Interval and counter accounting
-------------------------------

Per-core hit counts for clean hits and shadow-tag observations are
deferred and flushed in position order at every interval boundary and
chunk end, so ``CacheStats`` interval views, ``E_i``/``T_i`` inputs and
telemetry samples are byte-identical to the classic engine's. Misses,
evictions and occupancy are updated at event time (in order). The interval
countdown splits miss batches so ``end_interval`` fires after exactly the
same miss as in the classic engine.

Supported configurations
------------------------

Baseline policy ``LRUPolicy`` or ``DIPPolicy``; scheme ``None`` or
``PrismScheme`` (any allocation policy — the scheme object itself is
reused wholesale, so Algorithms 1-3, quantisation and bias correction are
the same code as the classic engine). Any other configuration raises
:class:`VectorUnsupported`; ``build_cache`` falls back to the classic
engine. Monitors are always accepted: shadow tags replay from the batch
machinery's deferred queues, interval-level monitors (``observe`` tagged
``_hot_noop``) only see boundaries, and any other per-access monitor —
the invariant checker of ``--check`` runs — sends batches down the
per-access route, so ``state()`` is exact whenever it observes an access.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from repro.cache.cache import AccessResult, _active
from repro.cache.encode import EncodedTrace, encode_accesses
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.dip import DIPPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.stats import CacheStats

__all__ = ["BatchResults", "VectorCache", "VectorUnsupported", "auto_chunk"]

#: Sentinel larger than any stamp (stamps are bounded by total accesses).
_FAR = np.int64(1) << 62
_FAR_INT = int(_FAR)

#: Below this many sets, an auto-chunked strict-order replay (PriSM, DIP,
#: PriSM over DIP) runs per access instead of in batches. Below it the
#: per-access route wins or ties on every PriSM trace in the driver rows of
#: benchmarks/bench_simulator_speed.py; from it up, a hit-heavy PriSM
#: trace runs faster in batches (docs/simulator.md, "Backends").
_BATCH_MIN_SETS = 2048

#: Accesses per slice of a per-access replay (bounds its int lists).
_SLICE = 1024


def auto_chunk(num_sets: int, free_order: bool) -> int:
    """The batch route's chunk length when ``chunk`` is left on auto.

    Free order re-batches tainted accesses recursively, so big chunks only
    cost extra rounds; strict order replays tainted accesses scalar, so the
    chunk is kept small enough that few accesses follow their set's first
    miss.
    """
    if free_order:
        return max(256, min(8192, 2 * num_sets))
    return max(64, min(4096, num_sets // 4))


class VectorUnsupported(ValueError):
    """The vector backend cannot represent this configuration exactly."""


class BatchResults:
    """Per-access outcomes of one :meth:`VectorCache.access_many` call.

    Stored as parallel arrays (building millions of ``AccessResult``
    tuples would dominate the batch runtime); :meth:`result` materialises
    one on demand and iteration yields them in order.
    """

    __slots__ = ("hit", "set_index", "evicted_core", "evicted_addr")

    def __init__(self, hit, set_index, evicted_core, evicted_addr) -> None:
        self.hit = hit
        self.set_index = set_index
        self.evicted_core = evicted_core
        self.evicted_addr = evicted_addr

    def __len__(self) -> int:
        return len(self.hit)

    def result(self, i: int) -> AccessResult:
        return AccessResult(
            bool(self.hit[i]),
            int(self.set_index[i]),
            int(self.evicted_core[i]),
            int(self.evicted_addr[i]),
        )

    def __iter__(self):
        for i in range(len(self.hit)):
            yield self.result(i)


class VectorCache:
    """Array-backed shared cache, API-compatible with ``SharedCache``.

    Args:
        geometry: size/associativity description.
        num_cores: number of sharing cores.
        policy: baseline replacement policy (``LRUPolicy`` or
            ``DIPPolicy``; anything else raises
            :class:`VectorUnsupported`).
        scheme: optional management scheme (``PrismScheme`` only).
        chunk: batch granularity; given explicitly, every replay takes
            the batch route (default: route and granularity chosen from
            the geometry, see :attr:`per_access`).
        core_map: optional cluster map (:mod:`repro.clustering`):
            ``core_map[real_core]`` is the accounting group charged for
            the core's blocks. Applied as one vectorised index
            translation at batch entry, so the slab fast paths run
            unchanged at cluster granularity.
        track_sharers: maintain per-block sharer bitmasks. Replays run
            through the (equally certified) per-access route — the slab
            fast paths stay reserved for exclusive-ownership replays,
            which is what the speed floors measure. Capped at 64 accounting
            owners (uint64 masks), matching the 16-64 core scale-out.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        num_cores: int,
        policy: Optional[ReplacementPolicy] = None,
        scheme=None,
        chunk: Optional[int] = None,
        core_map: Optional[Sequence[int]] = None,
        track_sharers: bool = False,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        if track_sharers and num_cores > 64:
            raise VectorUnsupported(
                f"sharer bitmasks are uint64: at most 64 accounting owners, "
                f"got {num_cores}"
            )
        self.geometry = geometry
        self.num_cores = num_cores
        if core_map is not None:
            core_map_arr = np.asarray(core_map, dtype=np.int64)
            if core_map_arr.ndim != 1 or not len(core_map_arr):
                raise ValueError("core_map must map at least one core")
            if core_map_arr.min() < 0 or core_map_arr.max() >= num_cores:
                raise ValueError(
                    f"core_map groups must lie in [0, {num_cores})"
                )
            self._core_map_arr: Optional[np.ndarray] = core_map_arr
        else:
            self._core_map_arr = None
        self.real_num_cores = (
            len(self._core_map_arr) if self._core_map_arr is not None else num_cores
        )
        self.track_sharers = bool(track_sharers)
        self._set_mask = geometry.num_sets - 1
        self._tag_shift = self._set_mask.bit_length()
        self.policy = policy if policy is not None else LRUPolicy()
        if type(self.policy) not in (LRUPolicy, DIPPolicy):
            raise VectorUnsupported(
                f"vector backend supports LRUPolicy/DIPPolicy baselines, "
                f"got {type(self.policy).__name__}"
            )
        nsets = geometry.num_sets
        assoc = geometry.assoc
        self.num_sets = nsets
        self.assoc = assoc
        # Set state. Tags are non-negative, so -1 never matches a lookup.
        self._tags = np.full((nsets, assoc), -1, dtype=np.int64)
        self._owners = np.full((nsets, assoc), -1, dtype=np.int64)
        self._ages = np.zeros((nsets, assoc), dtype=np.int64)
        self._ages_flat = self._ages.reshape(-1)
        self._nvalid = np.zeros(nsets, dtype=np.int64)
        # Most-recently-touched hint per set: if _mru_tag[s] == tag the
        # access is a guaranteed (resident) hit at _mru_way[s]; the batch
        # predictor skips the full row lookup for those accesses.
        self._mru_tag = np.full(nsets, -1, dtype=np.int64)
        self._mru_way = np.zeros(nsets, dtype=np.int64)
        # Per-block sharer bitmasks (bit i = accounting owner i); allocated
        # only when tracked — the fast paths never touch them.
        self._sharers: Optional[np.ndarray] = (
            np.zeros((nsets, assoc), dtype=np.uint64) if self.track_sharers else None
        )
        # Per-(set, core) residency counts; maintained only under PriSM
        # (the manager's victim sampling and fallbacks read them).
        self._counts: Optional[np.ndarray] = None
        # _core_counts key-insertion order per set (the classic defaultdict
        # materialises keys on fills *and* on sampled-target probes, and
        # the resample fallback iterates in that order).
        self._order: Optional[List[List[int]]] = None
        self._seen: Optional[List[int]] = None

        self.occupancy: List[int] = [0] * num_cores
        self.stats = CacheStats(num_cores)
        self.monitors: list = []
        self.scheme = None
        self.telemetry = None
        self.intervals_completed = 0
        self._interval_len = 0
        self._interval_left = 0
        self._clock = 0  # accesses processed; MRU stamps are positions
        self._low = 0  # decreasing stamp source for LRU-inserts

        self._mgr = None
        self._cum_np: Optional[np.ndarray] = None
        self._draws = np.empty(0, dtype=np.float64)  # pre-pulled RNG FIFO
        self._didx = 0
        self._dip: Optional[DIPPolicy] = (
            self.policy if isinstance(self.policy, DIPPolicy) else None
        )
        self._shadows: list = []
        self._shadow_observes: tuple = ()
        self._shadow_masks: tuple = ()
        self._observers: tuple = ()
        self._interval_monitors: tuple = ()

        # Reusable chunk scratch (grown on demand).
        self._fm = np.full(nsets, _FAR, dtype=np.int64)
        self._pmask = np.zeros(nsets, dtype=bool)
        self._pend_tag = np.zeros(nsets, dtype=np.int64)
        self._arange = np.arange(0, dtype=np.int64)
        self._reset_pending()

        # Flat memoryviews over the same buffers, for the per-access route:
        # element reads and writes through them are plain Python ints, an
        # order of magnitude cheaper than numpy scalar indexing. They alias
        # the arrays, so state() and check_integrity() see every write.
        self._vtags = memoryview(self._tags.reshape(-1))
        self._vowners = memoryview(self._owners.reshape(-1))
        self._vages = memoryview(self._ages_flat)
        self._vnvalid = memoryview(self._nvalid)
        self._vmru_tag = memoryview(self._mru_tag)
        self._vmru_way = memoryview(self._mru_way)
        self._vsharers = (
            memoryview(self._sharers.reshape(-1)) if self.track_sharers else None
        )
        self._vcounts = None

        self._chunk = chunk
        self.policy.bind(self)
        if scheme is not None:
            self.set_scheme(scheme)

    # -- wiring -----------------------------------------------------------

    def set_scheme(self, scheme) -> None:
        """Attach a management scheme (``PrismScheme`` only)."""
        from repro.core.prism import PrismScheme

        if type(scheme) is not PrismScheme:
            raise VectorUnsupported(
                f"vector backend supports PrismScheme (or no scheme), got "
                f"{type(scheme).__name__}"
            )
        self.scheme = scheme
        scheme.attach(self)
        self._interval_len = getattr(scheme, "interval_len", 0) or 0
        self._interval_left = self._interval_len
        self._mgr = scheme.manager
        self._cum_np = np.asarray(self._mgr._cumulative, dtype=np.float64)
        self._counts = np.zeros((self.num_sets, self.num_cores), dtype=np.int64)
        self._vcounts = memoryview(self._counts.reshape(-1))
        self._order = [[] for _ in range(self.num_sets)]
        self._seen = [0] * self.num_sets

    def set_telemetry(self, recorder) -> None:
        """Attach a telemetry recorder (fired at each interval boundary)."""
        self.telemetry = recorder

    def add_monitor(self, monitor) -> None:
        """Register an access observer.

        The shadow's per-access observations are replayed in exact
        position order from the batch machinery's deferred queues. Any
        other per-access monitor (``observe`` not tagged ``_hot_noop``,
        e.g. the invariant checker) sees every access after the shadows,
        before any mutation — ``access_many`` then takes the scalar route.
        """
        from repro.cache.shadow import ShadowTagMonitor

        self.monitors.append(monitor)
        self._shadows = [
            m for m in self.monitors if isinstance(m, ShadowTagMonitor)
        ]
        self._shadow_observes = tuple(m.observe for m in self._shadows)
        self._observers = tuple(
            m.observe
            for m in self.monitors
            if not isinstance(m, ShadowTagMonitor) and _active(m.observe) is not None
        )
        self._shadow_masks = tuple(m.sample_mask for m in self._shadows)
        self._interval_monitors = tuple(
            m.end_interval
            for m in self.monitors
            if getattr(m, "end_interval", None) is not None
        )

    # -- derived state ----------------------------------------------------

    @property
    def interval_miss_count(self) -> int:
        interval_len = self._interval_len
        return (interval_len - self._interval_left) if interval_len else 0

    @interval_miss_count.setter
    def interval_miss_count(self, value: int) -> None:
        self._interval_left = self._interval_len - value

    def occupancy_fractions(self) -> List[float]:
        n = self.geometry.num_blocks
        return [occ / n for occ in self.occupancy]

    def valid_blocks(self) -> int:
        return sum(self.occupancy)

    def group_of(self, core: int) -> int:
        """Accounting owner a real core's fills are charged to."""
        if self._core_map_arr is not None:
            return int(self._core_map_arr[core])
        return core

    @property
    def core_map(self) -> Optional[List[int]]:
        """The cluster map in force (``None`` when unclustered)."""
        if self._core_map_arr is not None:
            return self._core_map_arr.tolist()
        return None

    def state(self):
        """Every resident block as an :class:`~repro.cache.state.EngineState`.

        No fillers: core ids are translated at entry, before any state.
        """
        from repro.cache.state import EngineState

        valid = np.arange(self.assoc) < self._nvalid[:, None]
        sharers = self._sharers
        return EngineState.of(
            self, np.nonzero(valid)[0], self._tags[valid], self._owners[valid],
            sharers=sharers[valid] if sharers is not None else None,
        )

    def check_integrity(self) -> None:
        """Audit valid-way counts, PriSM residency counts and MRU hints.

        Raises:
            AssertionError: on any disagreement with the tag/owner arrays.
        """
        nvalid = self._nvalid
        valid = np.arange(self.assoc) < nvalid[:, None]
        mismatch = (valid != (self._tags >= 0)).any(axis=1)
        bad = np.flatnonzero((nvalid < 0) | (nvalid > self.assoc) | mismatch)
        assert not len(bad), (
            f"set {bad[0]}: valid-way count {nvalid[bad[0]]} disagrees with its tags"
        )
        hinted = np.flatnonzero(self._mru_tag >= 0)
        mru_tags = self._tags[hinted, self._mru_way[hinted]]
        stale = hinted[mru_tags != self._mru_tag[hinted]]
        assert not len(stale), f"set {stale[0]}: MRU hint names a non-resident tag"
        if self._counts is not None:
            owners = self._owners[valid]
            assert ((owners >= 0) & (owners < self.num_cores)).all(), "owner out of range"
            recount = np.zeros_like(self._counts)
            np.add.at(recount, (np.nonzero(valid)[0], owners), 1)
            bad = np.flatnonzero((recount != self._counts).any(axis=1))
            assert not len(bad), f"set {bad[0]}: residency counts disagree with owners"

    # -- pending (deferred) accounting ------------------------------------

    def _reset_pending(self) -> None:
        empty = np.empty(0, dtype=np.int64)
        # Deferred hit counts: [positions, cores, consumed-prefix] segments.
        # Each segment is position-sorted; segments overlap in position
        # (the clean-hit bulk spans the chunk, walk stretches interleave),
        # so the flush cuts each segment independently.
        self._ph_segs: List[list] = []
        self._ps_pos = empty  # sampled clean-hit shadow observations
        self._ps_cores = empty
        self._ps_sets = empty
        self._ps_tags = empty
        self._ps_ptr = 0
        # Event-side shadow observations, appended in position order.
        self._pe_pos: List[int] = []
        self._pe_cores: List[int] = []
        self._pe_sets: List[int] = []
        self._pe_tags: List[int] = []
        self._pe_hits: List[bool] = []
        self._pe_ptr = 0

    def _flush_upto(self, pos: int) -> None:
        """Apply deferred hit counts and shadow observations <= ``pos``."""
        total = None
        for seg in self._ph_segs:
            positions, seg_cores, ptr = seg
            k = int(np.searchsorted(positions, pos, side="right"))
            if k > ptr:
                counts = np.bincount(seg_cores[ptr:k], minlength=self.num_cores)
                total = counts if total is None else total + counts
                seg[2] = k
        if total is not None:
            hits = self.stats.hits
            for core in range(self.num_cores):
                hits[core] += int(total[core])
        if not self._shadows:
            return
        i = self._ps_ptr
        j = self._pe_ptr
        k1 = int(np.searchsorted(self._ps_pos, pos, side="right"))
        pe_pos = self._pe_pos
        k2 = j
        nj = len(pe_pos)
        while k2 < nj and pe_pos[k2] <= pos:
            k2 += 1
        if k1 == i and k2 == j:
            return
        rows = list(
            zip(
                self._ps_pos[i:k1].tolist(),
                self._ps_cores[i:k1].tolist(),
                self._ps_sets[i:k1].tolist(),
                self._ps_tags[i:k1].tolist(),
                (True,) * (k1 - i),
            )
        )
        rows.extend(
            zip(
                pe_pos[j:k2],
                self._pe_cores[j:k2],
                self._pe_sets[j:k2],
                self._pe_tags[j:k2],
                self._pe_hits[j:k2],
            )
        )
        rows.sort()  # positions are unique; both inputs are pre-sorted
        observes = self._shadow_observes
        if len(observes) == 1:
            observe = observes[0]
            for _, core, s, t, hit in rows:
                observe(core, s, t, hit)
        else:
            for _, core, s, t, hit in rows:
                for observe in observes:
                    observe(core, s, t, hit)
        self._ps_ptr = k1
        self._pe_ptr = k2

    # -- interval boundary -------------------------------------------------

    def _boundary(self, pos: int) -> None:
        """Fire the allocation interval exactly as the classic engine does."""
        self._flush_upto(pos)
        telemetry = self.telemetry
        if telemetry is None:
            self.scheme.end_interval(self)
        else:
            start = perf_counter()
            self.scheme.end_interval(self)
            telemetry.note_alloc_seconds(perf_counter() - start)
            telemetry.record_interval(self)
        self.stats.reset_interval()
        for end_interval in self._interval_monitors:
            end_interval()
        self._interval_left = self._interval_len
        self.intervals_completed += 1
        if self._mgr is not None:
            self._cum_np = np.asarray(self._mgr._cumulative, dtype=np.float64)

    # -- RNG draw FIFO ------------------------------------------------------

    def _ensure_draws(self, n: int) -> None:
        have = len(self._draws) - self._didx
        if have < n:
            rnd = self._mgr._rng.random
            fresh = np.array(
                [rnd() for _ in range(max(n - have, 512))], dtype=np.float64
            )
            self._draws = np.concatenate([self._draws[self._didx :], fresh])
            self._didx = 0

    def _next_draw(self) -> float:
        """The manager's next draw: the FIFO's head, else a fresh one."""
        i = self._didx
        if i < len(self._draws):
            self._didx = i + 1
            return float(self._draws[i])
        return self._mgr._rng.random()

    # -- scalar path --------------------------------------------------------

    def access(self, core: int, block_addr: int) -> AccessResult:
        """Simulate one access (the scalar, immediate-mode entry point)."""
        if self._core_map_arr is not None:
            core = int(self._core_map_arr[core])
        s = block_addr & self._set_mask
        t = block_addr >> self._tag_shift
        self._clock += 1
        hit, ecore, eaddr = self._scalar_access(
            int(core), s, t, self._clock, defer=False
        )
        if hit:
            return AccessResult(True, s, -1, -1)
        return AccessResult(False, s, ecore, eaddr)

    def _scalar_access(self, c: int, s: int, t: int, pos: int, defer: bool):
        """One access replayed exactly; state lives in the arrays.

        ``pos`` is the absolute stamp (1-based global access position).
        With ``defer`` the shadow observation is queued for the ordered
        flush; counters for misses (and tainted hits) are immediate either
        way — the deferred queues only ever hold *clean* hits. Every read
        and write goes through the flat memoryviews: way ``w`` of set
        ``s`` is element ``s * assoc + w``.
        """
        assoc = self.assoc
        base = s * assoc
        if self._vmru_tag[s] == t:  # the hint tag is always resident
            w = self._vmru_way[s]
            hit = True
        else:
            row = self._vtags[base : base + assoc].tolist()
            hit = t in row
            w = row.index(t) if hit else -1
        if self._shadows and self._is_sampled(s):
            if defer:
                self._pe_pos.append(pos)
                self._pe_cores.append(c)
                self._pe_sets.append(s)
                self._pe_tags.append(t)
                self._pe_hits.append(hit)
            else:
                for observe in self._shadow_observes:
                    observe(c, s, t, hit)
        if self._observers:
            for observe in self._observers:
                observe(c, s, t, hit)

        if hit:
            self.stats.hits[c] += 1
            self._vages[base + w] = pos
            self._vmru_tag[s] = t
            self._vmru_way[s] = w
            if self._vsharers is not None:
                self._vsharers[base + w] |= 1 << c
            return True, -1, -1

        self.stats.misses[c] += 1
        dip = self._dip
        if dip is not None:
            role = dip._role.get(s, "follow")
            if role == "lru":
                if dip.psel < dip.psel_max:
                    dip.psel += 1
            elif role == "bip":
                if dip.psel > 0:
                    dip.psel -= 1

        ecore = -1
        eaddr = -1
        counts = self._vcounts
        w = self._vnvalid[s]
        if w < assoc:
            self._vnvalid[s] = w + 1
            if counts is not None:
                self._note_core(s, c)
                counts[s * self.num_cores + c] += 1
        else:
            if self._mgr is not None:
                w = self._prism_victim(s, base)
            else:
                ages = self._vages[base : base + assoc].tolist()
                w = ages.index(min(ages))
            ecore = self._vowners[base + w]
            eaddr = (self._vtags[base + w] << self._tag_shift) | s
            self.occupancy[ecore] -= 1
            self.stats.evictions[ecore] += 1
            if counts is not None and ecore != c:
                row_base = s * self.num_cores
                counts[row_base + ecore] -= 1
                self._note_core(s, c)
                counts[row_base + c] += 1
        self._fill(s, w, t, c, pos, dip)
        self.occupancy[c] += 1

        if self._interval_len:
            left = self._interval_left - 1
            if left:
                self._interval_left = left
            else:
                self._boundary(pos)
        return False, ecore, eaddr

    def _fill(self, s: int, w: int, t: int, c: int, pos: int, dip) -> None:
        """Place (tag, core) into way ``w`` at the policy's position."""
        i = s * self.assoc + w
        self._vtags[i] = t
        self._vowners[i] = c
        if self._vsharers is not None:
            self._vsharers[i] = 1 << c
        if dip is not None:
            role = dip._role.get(s, "follow")
            if role == "lru":
                bip = False
            elif role == "bip":
                bip = True
            else:
                bip = dip.psel > dip.psel_max // 2
            if bip and dip._rng.random() >= dip.epsilon:
                # LRU-insert: a stamp below every stamp already issued.
                self._low -= 1
                pos = self._low
        self._vages[i] = pos
        self._vmru_tag[s] = t
        self._vmru_way[s] = w

    def _is_sampled(self, s: int) -> bool:
        for mask in self._shadow_masks:
            if not (s & mask):
                return True
        return False

    def _note_core(self, s: int, core: int) -> None:
        """Record ``core`` entering set ``s``'s count-key insertion order."""
        bit = 1 << core
        if not (self._seen[s] & bit):
            self._seen[s] |= bit
            self._order[s].append(core)

    def _prism_victim(self, s: int, base: int) -> int:
        """Two-step replacement on full set ``s`` (first element ``base``
        in the flat views); returns the victim way."""
        mgr = self._mgr
        mgr.replacements += 1
        target = bisect_right(mgr._cumulative, self._next_draw())
        self._note_core(s, target)
        assoc = self.assoc
        owners = self._vowners[base : base + assoc].tolist()
        ages = self._vages[base : base + assoc].tolist()
        if self._vcounts[s * self.num_cores + target]:
            return self._core_lru_way(owners, ages, target)
        return self._prism_fallback(s, owners, ages)

    def _prism_fallback(self, s: int, owners, ages) -> int:
        """The victim-not-found fallback, matching the classic manager."""
        mgr = self._mgr
        mgr.victim_not_found += 1
        probabilities = mgr.probabilities
        if mgr.fallback == "paper":
            # The LRU-most block of any core with a non-zero probability.
            best = _FAR_INT
            way = -1
            for w, owner in enumerate(owners):
                if probabilities[owner] > 0.0 and ages[w] < best:
                    best = ages[w]
                    way = w
            return way if way >= 0 else ages.index(min(ages))
        # Resample E over the cores present, in count-key insertion order
        # (the classic defaultdict's), so float sums accumulate alike.
        counts = self._vcounts
        row_base = s * self.num_cores
        present = [core for core in self._order[s] if counts[row_base + core]]
        total = 0.0
        for core in present:
            total += probabilities[core]
        if total <= 0.0:
            return ages.index(min(ages))
        draw = self._next_draw() * total
        acc = 0.0
        chosen = -1
        for core in present:
            p = probabilities[core]
            if p > 0.0:
                acc += p
                chosen = core
                if draw <= acc:
                    break
        return self._core_lru_way(owners, ages, chosen)

    @staticmethod
    def _core_lru_way(owners, ages, core: int) -> int:
        best = _FAR_INT
        way = -1
        for w, owner in enumerate(owners):
            if owner == core and ages[w] < best:
                best = ages[w]
                way = w
        return way

    # -- batch path ----------------------------------------------------------

    def access_many(self, cores, addrs=None, collect: bool = False):
        """Replay many accesses; optionally collect per-access results.

        Args:
            cores: an :class:`~repro.cache.encode.EncodedTrace`, or the
                per-access core ids.
            addrs: block addresses (required unless ``cores`` is already
                an encoded trace).
            collect: build a :class:`BatchResults`; leave off on
                throughput-critical replays.

        Returns:
            A :class:`BatchResults` when ``collect``, else ``None``.
        """
        if isinstance(cores, EncodedTrace):
            trace = cores
        else:
            if addrs is None:
                raise TypeError("access_many needs addrs unless given an EncodedTrace")
            trace = encode_accesses(cores, addrs, self.geometry)
        n = len(trace)
        out = None
        if collect:
            out = BatchResults(
                np.zeros(n, dtype=bool),
                trace.set_indices,
                np.full(n, -1, dtype=np.int64),
                np.full(n, -1, dtype=np.int64),
            )
        if n == 0:
            return out
        if self._core_map_arr is not None:
            # Cluster granularity is a pure index translation: every
            # path downstream already works in accounting-owner ids.
            c_all, s_all, t_all = trace
            trace = EncodedTrace(self._core_map_arr[c_all], s_all, t_all)
        if self.per_access:
            return self._replay_scalar(*trace, out)
        free_order = self._free_order
        chunk = self._chunk or auto_chunk(self.num_sets, free_order)
        c_all, s_all, t_all = trace
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            c = c_all[start:stop]
            s = s_all[start:stop]
            t = t_all[start:stop]
            if free_order:
                self._chunk_free(c, s, t, start, out)
            else:
                self._chunk_strict(c, s, t, start, out)
            self._clock += stop - start
        return out

    @property
    def _free_order(self) -> bool:
        """Unmanaged LRU: no draws, duels or observers, so accesses that
        follow their set's first miss may be re-batched out of order."""
        return (
            self.scheme is None
            and self._dip is None
            and not self._shadows
            and type(self.policy) is LRUPolicy
        )

    @property
    def per_access(self) -> bool:
        """Whether :meth:`access_many` replays one access at a time.

        True with sharer tracking (masks mutate on every hit, which breaks
        the out-of-order clean-hit scatter) or a per-access monitor (it
        must see exact state). Otherwise true only when ``chunk`` is left
        on auto and a strict-order replay (PriSM's draws, DIP's duel) runs
        on fewer than ``_BATCH_MIN_SETS`` sets: there a batch can group
        only the few misses that land in distinct sets between flushes.
        Unmanaged LRU re-batches out of order, so it always batches, and an
        explicit ``chunk`` always batches. Either route is bit-exact: same
        state, same RNG order.
        """
        return bool(
            self.track_sharers
            or self._observers
            or (
                not self._chunk
                and self.num_sets < _BATCH_MIN_SETS
                and not self._free_order
            )
        )

    def _replay_scalar(self, c_all, s_all, t_all, out) -> Optional[BatchResults]:
        """Per-access replay of a batch, in bounded slices.

        Each slice becomes Python ints once (never the whole batch, whose
        int lists would cost memory in proportion to its length) and its
        outcomes land in ``out`` as one slice assignment per array.
        """
        scalar = self._scalar_access
        first = self._clock + 1
        n = len(c_all)
        for start in range(0, n, _SLICE):
            stop = min(start + _SLICE, n)
            rows = [
                scalar(c, s, t, pos, False)
                for pos, c, s, t in zip(
                    range(first + start, first + stop),
                    c_all[start:stop].tolist(),
                    s_all[start:stop].tolist(),
                    t_all[start:stop].tolist(),
                )
            ]
            if out is not None:
                hit, ecore, eaddr = zip(*rows)
                out.hit[start:stop] = hit
                out.evicted_core[start:stop] = ecore
                out.evicted_addr[start:stop] = eaddr
        self._clock += n
        return out

    def _predict(self, s, t):
        """Hit/way prediction against current state (exact for clean sets)."""
        hot = self._mru_tag[s] == t
        way = np.empty(len(s), dtype=np.int64)
        hit = hot.copy()
        hot_idx = np.flatnonzero(hot)
        if len(hot_idx):
            way[hot_idx] = self._mru_way[s[hot_idx]]
        cold_idx = np.flatnonzero(~hot)
        if len(cold_idx):
            rows = self._tags[s[cold_idx]]
            eq = rows == t[cold_idx, None]
            hit[cold_idx] = eq.any(axis=1)
            way[cold_idx] = eq.argmax(axis=1)
        return hit, way

    def _taint(self, s, hit, n):
        """The clean/tainted split: tainted follows its set's first miss."""
        if len(self._arange) < n:
            self._arange = np.arange(max(n, 2 * len(self._arange)), dtype=np.int64)
        pos = self._arange[:n]
        miss_idx = np.flatnonzero(~hit)
        if not len(miss_idx):
            return None, np.zeros(n, dtype=bool)
        fm = self._fm
        touched = s[miss_idx]
        fm[touched] = n
        np.minimum.at(fm, touched, miss_idx)
        tainted = pos > fm[s]
        fm[touched] = _FAR
        return miss_idx, tainted

    def _apply_clean_hits(self, ch_idx, c, s, t, way, base, defer_counts):
        """Bulk-apply clean hits: stamps, MRU hints, deferred counters."""
        if not len(ch_idx):
            return
        sets = s[ch_idx]
        ways = way[ch_idx]
        stamps = base + 1 + ch_idx
        # Indices ascend in position and every new stamp exceeds anything
        # already on its way, so fancy assignment's documented
        # last-value-wins semantics apply both stamps and MRU hints.
        self._ages_flat[sets * self.assoc + ways] = stamps
        self._mru_tag[sets] = t[ch_idx]
        self._mru_way[sets] = ways
        cores = c[ch_idx]
        if not defer_counts:
            counts = np.bincount(cores, minlength=self.num_cores)
            hits = self.stats.hits
            for core in range(self.num_cores):
                hits[core] += int(counts[core])
            return
        self._ph_segs.append([stamps, cores, 0])
        if self._shadows:
            sampled = np.zeros(len(ch_idx), dtype=bool)
            for monitor in self._shadows:
                sampled |= (sets & monitor.sample_mask) == 0
            sp = np.flatnonzero(sampled)
            self._ps_pos = stamps[sp]
            self._ps_cores = cores[sp]
            self._ps_sets = sets[sp]
            self._ps_tags = t[ch_idx[sp]]
            self._ps_ptr = 0

    # -- strict (in-order) chunk processing ---------------------------------

    def _chunk_strict(self, c, s, t, offset, out):
        n = len(c)
        base = self._clock
        hit, way = self._predict(s, t)
        miss_idx, tainted = self._taint(s, hit, n)
        clean_hit = hit & ~tainted
        ch_idx = np.flatnonzero(clean_hit)
        defer = bool(self._shadows) or bool(self._interval_len)
        self._apply_clean_hits(ch_idx, c, s, t, way, base, defer)
        if out is not None and len(ch_idx):
            out.hit[offset + ch_idx] = True

        if miss_idx is not None or tainted.any():
            ev_idx = np.flatnonzero(~clean_hit)
            if self._mgr is not None and self._dip is None:
                self._walk_pending(ev_idx, c, s, t, base, offset, out)
            else:
                self._walk_scalar(ev_idx, hit, way, c, s, t, base, offset, out)
        if defer:
            self._flush_upto(base + n)
            self._reset_pending()

    def _walk_scalar(self, ev_idx, hit, way, c, s, t, base, offset, out):
        """In-order event walk with scalar misses (DIP / unmanaged cases).

        Tainted predicted-hit stretches are still verified and applied in
        bulk; every miss replays scalar (DIP's per-miss PSEL update and
        bimodal-insertion draw are inherently sequential).
        """
        i = 0
        n_ev = len(ev_idx)
        while i < n_ev:
            k = int(ev_idx[i])
            if hit[k]:
                # Tainted predicted-hit stretch: by the time the walk
                # reaches it, state is exact, so predictions can be
                # verified vectorised and applied in bulk; the first
                # access whose block moved is replayed scalar below.
                j = i + 1
                while j < n_ev and hit[ev_idx[j]]:
                    j += 1
                if j - i >= 4:
                    applied = self._verify_hits(
                        ev_idx[i:j], c, s, t, way, base, offset, out
                    )
                    i += applied
                    if i == j:
                        continue
                    k = int(ev_idx[i])
            hit_k, ecore, eaddr = self._scalar_access(
                int(c[k]), int(s[k]), int(t[k]), base + 1 + k, defer=True
            )
            if out is not None:
                if hit_k:
                    out.hit[offset + k] = True
                else:
                    out.evicted_core[offset + k] = ecore
                    out.evicted_addr[offset + k] = eaddr
            i += 1

    def _walk_pending(self, ev_idx, c, s, t, base, offset, out):
        """In-order event walk for PriSM-over-LRU with miss accumulation.

        The walk advances through the chunk's events (misses plus accesses
        that follow their set's first predicted miss) in stretches. Each
        stretch re-predicts hit/way against *current* state; a prediction
        is certain unless the access's set holds a pending (unapplied)
        miss or an earlier actual miss within the stretch. Certain hits
        apply in bulk; certain misses are *accumulated* — each is the
        first miss of its set since the last flush, so the pending buffer
        always covers distinct sets in ascending position order and can be
        applied as one vectorised slice. Only a same-set collision (or the
        end of the chunk) forces a flush, so slice count tracks collisions
        rather than taint interruptions, and draw order is preserved: no
        miss is applied out of position order, and verified hits never
        consume draws.

        An access whose tag equals its set's pending-miss tag is a
        guaranteed hit on the block that fill will install ("post-fill
        hit"): it is counted as a hit immediately but its recency stamp is
        deferred and written onto the fill's way after the flush, so the
        common miss-then-rehit pattern does not force a flush either.
        """
        pmask = self._pmask
        pend_tag = self._pend_tag
        pend_parts: List[np.ndarray] = []
        pend_sets: List[np.ndarray] = []
        post_sets: List[np.ndarray] = []
        post_pos: List[np.ndarray] = []
        shadows = bool(self._shadows)
        defer_counts = shadows or bool(self._interval_len)
        hits_stat = self.stats.hits
        i = 0
        n_ev = len(ev_idx)
        while i < n_ev:
            stretch = ev_idx[i : i + 512]
            m = len(stretch)
            S = s[stretch]
            T = t[stretch]
            vhit, vway = self._predict(S, T)
            pm = pmask[S]
            amiss = np.flatnonzero(~vhit)
            if len(amiss):
                if len(self._arange) < m:
                    self._arange = np.arange(
                        max(m, 2 * len(self._arange)), dtype=np.int64
                    )
                fm = self._fm
                touched = S[amiss]
                fm[touched] = m
                np.minimum.at(fm, touched, amiss)
                fmi = fm[S]
                infm = self._arange[:m] > fmi
                fm[touched] = _FAR
                prior_tag = np.where(pm, pend_tag[S], T[np.minimum(fmi, m - 1)])
                has_prior = pm | infm
            else:
                prior_tag = pend_tag[S]
                has_prior = pm
            attach = None
            stop = m
            if has_prior.any():
                attach = has_prior & (T == prior_tag)
                bad = np.flatnonzero(has_prior & ~attach)
                if len(bad):
                    stop = int(bad[0])
                if stop == 0:
                    # The stopper's set holds an unapplied miss it cannot
                    # be verified against: flush, then re-verify it.
                    self._flush_pending(
                        pend_parts, pend_sets, post_sets, post_pos,
                        c, s, t, base, offset, out,
                    )
                    pend_parts = []
                    pend_sets = []
                    post_sets = []
                    post_pos = []
                    continue
            prefix = stretch[:stop]
            vh = vhit[:stop]
            h_idx = vh.nonzero()[0]
            if len(h_idx):
                g = prefix[h_idx]
                sets = S[h_idx]
                ways = vway[h_idx]
                tags = T[h_idx]
                stamps = base + 1 + g
                self._ages_flat[sets * self.assoc + ways] = stamps
                self._mru_tag[sets] = tags
                self._mru_way[sets] = ways
                if defer_counts:
                    self._ph_segs.append([stamps, c[g], 0])
                else:
                    counts = np.bincount(c[g], minlength=self.num_cores)
                    for core in range(self.num_cores):
                        hits_stat[core] += int(counts[core])
                if out is not None:
                    out.hit[offset + g] = True
            if attach is not None:
                at = attach[:stop]
                a_idx = np.flatnonzero(at)
            else:
                at = None
                a_idx = ()
            if len(a_idx):
                ga = prefix[a_idx]
                stamps_a = base + 1 + ga
                post_sets.append(S[a_idx])
                post_pos.append(stamps_a)
                if defer_counts:
                    self._ph_segs.append([stamps_a, c[ga], 0])
                else:
                    counts = np.bincount(c[ga], minlength=self.num_cores)
                    for core in range(self.num_cores):
                        hits_stat[core] += int(counts[core])
                if out is not None:
                    out.hit[offset + ga] = True
                miss_mask = ~vh & ~at
            else:
                miss_mask = ~vh
            m_idx = np.flatnonzero(miss_mask)
            if len(m_idx):
                pend = prefix[m_idx]
                msets = S[m_idx]
                pmask[msets] = True
                pend_tag[msets] = T[m_idx]
                pend_parts.append(pend)
                pend_sets.append(msets)
            if shadows:
                sampled = np.zeros(stop, dtype=bool)
                for mask in self._shadow_masks:
                    sampled |= (S[:stop] & mask) == 0
                hit_flag = vh if at is None else vh | at
                for k in np.flatnonzero(sampled):
                    idx = int(prefix[k])
                    self._pe_pos.append(base + 1 + idx)
                    self._pe_cores.append(int(c[idx]))
                    self._pe_sets.append(int(S[k]))
                    self._pe_tags.append(int(T[k]))
                    self._pe_hits.append(bool(hit_flag[k]))
            i += stop
        self._flush_pending(
            pend_parts, pend_sets, post_sets, post_pos, c, s, t, base, offset, out
        )

    def _flush_pending(
        self, pend_parts, pend_sets, post_sets, post_pos, c, s, t, base, offset, out
    ):
        """Apply the accumulated pending misses as one ordered slice, then
        re-stamp each fill's way with its last post-fill hit position."""
        if not pend_parts:
            return
        run = pend_parts[0] if len(pend_parts) == 1 else np.concatenate(pend_parts)
        sets = pend_sets[0] if len(pend_sets) == 1 else np.concatenate(pend_sets)
        self._pmask[sets] = False
        self._batch_prism(run, c, s, t, base, offset, out)
        if post_sets:
            ps = post_sets[0] if len(post_sets) == 1 else np.concatenate(post_sets)
            pp = post_pos[0] if len(post_pos) == 1 else np.concatenate(post_pos)
            # The fill is the last event of its set within the flush, so
            # the MRU hint still points at the filled way; positions
            # ascend, so last-value-wins keeps the newest stamp.
            self._ages[ps, self._mru_way[ps]] = pp

    def _verify_hits(self, ev, c, s, t, way, base, offset, out):
        """Bulk-apply a stretch of tainted predicted hits, re-verified.

        ``ev`` holds consecutive events that were all *predicted* hits, with
        no miss between them — so between the stretch's start and each
        access, only other hits run, and tags are constant: an access is a
        true hit iff its predicted (set, way) still holds its tag *now*.
        Applies the verified prefix and returns its length; the caller
        replays the first failure (an actual miss) scalar.
        """
        S = s[ev]
        W = way[ev]
        T = t[ev]
        ok = self._tags[S, W] == T
        bad = np.nonzero(~ok)[0]
        good = len(ev) if not len(bad) else int(bad[0])
        if not good:
            return 0
        g = ev[:good]
        sets = S[:good]
        ways = W[:good]
        tags = T[:good]
        stamps = base + 1 + g
        self._ages_flat[sets * self.assoc + ways] = stamps
        self._mru_tag[sets] = tags
        self._mru_way[sets] = ways
        cores = c[g]
        counts = np.bincount(cores, minlength=self.num_cores)
        hits = self.stats.hits
        for core in range(self.num_cores):
            hits[core] += int(counts[core])
        if out is not None:
            out.hit[offset + g] = True
        if self._shadows:
            sampled = np.zeros(good, dtype=bool)
            for mask in self._shadow_masks:
                sampled |= (sets & mask) == 0
            for k in np.nonzero(sampled)[0]:
                self._pe_pos.append(int(stamps[k]))
                self._pe_cores.append(int(cores[k]))
                self._pe_sets.append(int(sets[k]))
                self._pe_tags.append(int(tags[k]))
                self._pe_hits.append(True)
        return good

    def _batch_prism(self, run, c, s, t, base, offset, out):
        """A run of clean misses under PriSM-over-LRU, in global order.

        Every miss in the run targets a distinct set (each is its set's
        first miss since the last flush), so gathers/scatters within a
        slice never collide; the interval countdown splits the run so
        boundaries fire after exactly the right miss. Shadow observations
        for the run were already queued by the walk, in position order.
        """
        S = s[run]
        C = c[run]
        T = t[run]
        POS = base + 1 + run
        ilen = self._interval_len
        k = 0
        m = len(run)
        while k < m:
            take = min(m - k, self._interval_left) if ilen else m - k
            j = k + take
            self._apply_prism_slice(
                run[k:j], S[k:j], C[k:j], T[k:j], POS[k:j], offset, out
            )
            k = j
            if ilen:
                self._interval_left -= take
                if self._interval_left == 0:
                    self._boundary(base + 1 + int(run[k - 1]))

    def _apply_prism_slice(self, run, S, C, T, POS, offset, out):
        misses = np.bincount(C, minlength=self.num_cores)
        stats_misses = self.stats.misses
        for core in range(self.num_cores):
            stats_misses[core] += int(misses[core])

        counts = self._counts
        nv = self._nvalid[S]
        nf = (nv < self.assoc).nonzero()[0]
        if len(nf):
            sets = S[nf]
            cores = C[nf]
            ways = nv[nf]
            prev = counts[sets, cores]
            for k in np.flatnonzero(prev == 0):
                self._note_core(int(sets[k]), int(cores[k]))
            counts[sets, cores] += 1
            self._nvalid[sets] += 1
            self._tags[sets, ways] = T[nf]
            self._owners[sets, ways] = cores
            self._ages[sets, ways] = POS[nf]
            self._mru_tag[sets] = T[nf]
            self._mru_way[sets] = ways
            occupancy = self.occupancy
            filled = np.bincount(cores, minlength=self.num_cores)
            for core in range(self.num_cores):
                occupancy[core] += int(filled[core])

        fu = (nv == self.assoc).nonzero()[0]
        if not len(fu):
            return
        mgr = self._mgr
        # Every set in the slice is distinct, so one replacement never
        # perturbs another's sampling/fallback decision — the vectorised
        # prefixes from all fallback rounds, and the fallback victims
        # themselves, can all be applied as one scatter at the end.
        good_parts: list = []
        target_parts: list = []
        fb: Optional[tuple] = None
        p = 0
        while p < len(fu):
            rem = fu[p:]
            self._ensure_draws(len(rem))
            draws = self._draws[self._didx : self._didx + len(rem)]
            targets = np.searchsorted(self._cum_np, draws, side="right")
            ok = counts[S[rem], targets] > 0
            bad = np.nonzero(~ok)[0]
            good = len(rem) if not len(bad) else int(bad[0])
            if good:
                good_parts.append(rem[:good])
                target_parts.append(targets[:good])
                self._didx += good
                mgr.replacements += good
            p += good
            if good < len(rem):
                # The sampled core holds no block here: the fallback draws
                # again, shifting every later draw by one — re-map the
                # remainder of the FIFO on the next loop iteration. The
                # victim way is decided scalar (it reads only this set),
                # the replacement itself joins the final scatter.
                k = int(rem[good])
                self._didx += 1
                mgr.replacements += 1
                sidx = int(S[k])
                self._note_core(sidx, int(targets[good]))
                owners = self._owners[sidx].tolist()
                ages = self._ages[sidx].tolist()
                w = self._prism_fallback(sidx, owners, ages)
                if fb is None:
                    fb = ([], [])
                fb[0].append(k)
                fb[1].append(w)
                p += 1
        if good_parts:
            sl = good_parts[0] if len(good_parts) == 1 else np.concatenate(good_parts)
            tg = target_parts[0] if len(target_parts) == 1 else np.concatenate(target_parts)
            gsets = S[sl]
            orows = self._owners[gsets]
            arows = self._ages[gsets]
            match = orows == tg[:, None]
            masked = np.where(match, arows, _FAR)
            vw = masked.argmin(axis=1)
            if fb is not None:
                fbi = np.asarray(fb[0], dtype=np.int64)
                sl = np.concatenate([sl, fbi])
                vw = np.concatenate([vw, np.asarray(fb[1], dtype=np.int64)])
        elif fb is not None:
            sl = np.asarray(fb[0], dtype=np.int64)
            vw = np.asarray(fb[1], dtype=np.int64)
        else:
            return
        self._scatter_replacements(
            S[sl], C[sl], T[sl], POS[sl], vw, run[sl], offset, out
        )

    def _scatter_replacements(self, sets, cores, tags, stamps, vw, run, offset, out):
        """Apply replacements with known victim ways as one scatter."""
        counts = self._counts
        vcores = self._owners[sets, vw]
        vtags = self._tags[sets, vw]
        prev = counts[sets, cores]
        newkey = np.flatnonzero((prev == 0) & (vcores != cores))
        for k in newkey:
            self._note_core(int(sets[k]), int(cores[k]))
        counts[sets, vcores] -= 1
        counts[sets, cores] += 1
        self._tags[sets, vw] = tags
        self._owners[sets, vw] = cores
        self._ages[sets, vw] = stamps
        self._mru_tag[sets] = tags
        self._mru_way[sets] = vw
        occupancy = self.occupancy
        evictions = self.stats.evictions
        evicted = np.bincount(vcores, minlength=self.num_cores)
        filled = np.bincount(cores, minlength=self.num_cores)
        for core in range(self.num_cores):
            occupancy[core] += int(filled[core]) - int(evicted[core])
            evictions[core] += int(evicted[core])
        if out is not None:
            at = offset + run
            out.evicted_core[at] = vcores
            out.evicted_addr[at] = (vtags << self._tag_shift) | sets

    # -- free-order chunk processing (unmanaged LRU) -------------------------

    def _chunk_free(self, c, s, t, offset, out):
        """Unmanaged LRU: no draws, duels, intervals or observers — only
        commutative counters — so tainted accesses can themselves be
        re-batched recursively instead of replayed scalar."""
        base = self._clock
        idx = None  # None = whole chunk
        c_sub, s_sub, t_sub = c, s, t
        pos_sub = None
        while True:
            n = len(c_sub)
            if n <= 48:
                for k in range(n):
                    pos = int(pos_sub[k]) if pos_sub is not None else k
                    hit_k, ecore, eaddr = self._scalar_access(
                        int(c_sub[k]),
                        int(s_sub[k]),
                        int(t_sub[k]),
                        base + 1 + pos,
                        defer=False,
                    )
                    if out is not None:
                        at = offset + pos
                        if hit_k:
                            out.hit[at] = True
                        else:
                            out.evicted_core[at] = ecore
                            out.evicted_addr[at] = eaddr
                return
            hit, way = self._predict(s_sub, t_sub)
            miss_idx, tainted = self._taint(s_sub, hit, n)
            clean_hit_mask = hit & ~tainted
            ch_idx = np.flatnonzero(clean_hit_mask)
            abs_idx = pos_sub if pos_sub is not None else self._arange[:n]
            # Stamps must be the original positions, so recursion rounds
            # keep the per-set stamp order of the original trace.
            if len(ch_idx):
                sets = s_sub[ch_idx]
                ways = way[ch_idx]
                stamps = base + 1 + abs_idx[ch_idx]
                np.maximum.at(self._ages_flat, sets * self.assoc + ways, stamps)
                rev = ch_idx[::-1]
                u_sets, u_first = np.unique(sets[::-1], return_index=True)
                last = rev[u_first]
                self._mru_tag[u_sets] = t_sub[last]
                self._mru_way[u_sets] = way[last]
                counts = np.bincount(c_sub[ch_idx], minlength=self.num_cores)
                hits = self.stats.hits
                for core in range(self.num_cores):
                    hits[core] += int(counts[core])
                if out is not None:
                    out.hit[offset + abs_idx[ch_idx]] = True
            if miss_idx is None:
                return
            cm_idx = miss_idx[~tainted[miss_idx]]
            if len(cm_idx):
                self._bulk_lru_misses(
                    s_sub[cm_idx],
                    c_sub[cm_idx],
                    t_sub[cm_idx],
                    base + 1 + abs_idx[cm_idx],
                    offset + abs_idx[cm_idx] if out is not None else None,
                    out,
                )
            ta_idx = np.flatnonzero(tainted)
            if not len(ta_idx):
                return
            c_sub = c_sub[ta_idx]
            s_sub = s_sub[ta_idx]
            t_sub = t_sub[ta_idx]
            pos_sub = abs_idx[ta_idx]

    def _bulk_lru_misses(self, sets, cores, tags, stamps, at, out):
        """All first-per-set misses of one round, distinct sets throughout."""
        misses = np.bincount(cores, minlength=self.num_cores)
        stats_misses = self.stats.misses
        for core in range(self.num_cores):
            stats_misses[core] += int(misses[core])
        nv = self._nvalid[sets]
        nf = np.flatnonzero(nv < self.assoc)
        occupancy = self.occupancy
        if len(nf):
            fs = sets[nf]
            fc = cores[nf]
            ways = nv[nf]
            self._nvalid[fs] += 1
            self._tags[fs, ways] = tags[nf]
            self._owners[fs, ways] = fc
            self._ages[fs, ways] = stamps[nf]
            self._mru_tag[fs] = tags[nf]
            self._mru_way[fs] = ways
            filled = np.bincount(fc, minlength=self.num_cores)
            for core in range(self.num_cores):
                occupancy[core] += int(filled[core])
        fu = np.flatnonzero(nv == self.assoc)
        if len(fu):
            fs = sets[fu]
            fc = cores[fu]
            arows = self._ages[fs]
            vw = arows.argmin(axis=1)
            vcores = self._owners[fs, vw]
            vtags = self._tags[fs, vw]
            self._tags[fs, vw] = tags[fu]
            self._owners[fs, vw] = fc
            self._ages[fs, vw] = stamps[fu]
            self._mru_tag[fs] = tags[fu]
            self._mru_way[fs] = vw
            evictions = self.stats.evictions
            evicted = np.bincount(vcores, minlength=self.num_cores)
            filled = np.bincount(fc, minlength=self.num_cores)
            for core in range(self.num_cores):
                occupancy[core] += int(filled[core]) - int(evicted[core])
                evictions[core] += int(evicted[core])
            if out is not None:
                out.evicted_core[at[fu]] = vcores
                out.evicted_addr[at[fu]] = (vtags << self._tag_shift) | fs
