"""The reference simulator: slow, naive, and obviously correct.

This module re-derives the shared-cache semantics from the paper (and
from this repo's documented deviations, see ``DESIGN.md``) with the
simplest data structures that can express them:

- a cache set is a **plain Python list** of blocks in MRU→LRU order —
  every operation is a scan, splice or ``insert(0, ...)``;
- the shadow-tag monitor keeps **plain per-core LRU stacks** of tags;
- PriSM's Algorithms 1-3, Eq. 1 (and its renormalisation), the K-bit
  quantisation and the Section 3.1 two-step replacement with both
  victim-not-found fallbacks are transcribed **literally** as free
  functions, with the same arithmetic in the same order as the spec so
  a correct engine matches it float-for-float.

Nothing here imports from :mod:`repro.cache`, :mod:`repro.core` or
:mod:`repro.partitioning` — the only shared ingredients are the seed
derivation (:mod:`repro.util.rng`; both simulators stand in for the same
hardware RNG, so they must draw from the same stream) and the stdlib.
:func:`build_reference` accepts the same registry names and
``scheme_kwargs`` as :func:`repro.experiments.schemes.build_scheme`, so a
differential harness can build both sides from one spec.

Two deliberate fidelity notes, mirrored because they are *semantics*,
not data-structure accidents:

- The engine's resample fallback iterates a set's resident cores in
  **first-touch order** (the order in which each core either first
  gained a block in the set or was first sampled as a victim core
  there). The reference models that order explicitly as a list.
- ``cumulative[-1]`` of the sampling distribution is pinned to 1.0 so a
  draw of 0.999... can never fall off the top end.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.cache.state import EngineState
from repro.util.rng import make_rng

__all__ = [
    "REFERENCE_SCHEMES",
    "RefAccess",
    "ReferenceCache",
    "build_reference",
    "ref_eviction_probability",
    "ref_derive_eviction_probabilities",
    "ref_hitmax_targets",
    "ref_fairness_targets",
    "ref_qos_targets",
    "ref_normalize_targets",
    "ref_quantize",
    "ref_dequantize",
]


# -- blocks and sets ---------------------------------------------------------


class RefBlock:
    """One resident cache block: a (tag, accounting owner) pair.

    ``sharers`` (bitmask of accounting owners that touched the block
    since its fill) and ``filler`` (the real core that filled it, under a
    cluster map) mirror the engine's ownership refactor literally.
    """

    __slots__ = ("tag", "core", "sharers", "filler")

    def __init__(self, tag: int, core: int) -> None:
        self.tag = tag
        self.core = core
        self.sharers = 0
        self.filler = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RefBlock(tag={self.tag:#x}, core={self.core})"


class RefSet:
    """A cache set as a plain list, index 0 = MRU, last = LRU."""

    def __init__(self, index: int, assoc: int) -> None:
        self.index = index
        self.assoc = assoc
        self.blocks: List[RefBlock] = []
        # core -> resident count; insertion order is first-touch order
        # (see module docstring), entries are never removed once created.
        self.core_counts: Dict[int, int] = {}

    def touch(self, core: int) -> None:
        """Materialise ``core`` in the first-touch order (count stays 0)."""
        if core not in self.core_counts:
            self.core_counts[core] = 0

    def lookup(self, tag: int) -> Optional[RefBlock]:
        for block in self.blocks:
            if block.tag == tag:
                return block
        return None

    @property
    def full(self) -> bool:
        return len(self.blocks) >= self.assoc

    def promote(self, block: RefBlock) -> None:
        """Move a resident block to the MRU position."""
        self.blocks.remove(block)
        self.blocks.insert(0, block)

    def insert(self, tag: int, core: int, at_lru: bool) -> RefBlock:
        if self.full:
            raise RuntimeError(f"reference set {self.index}: fill on a full set")
        block = RefBlock(tag, core)
        self.touch(core)
        self.core_counts[core] += 1
        if at_lru:
            self.blocks.append(block)
        else:
            self.blocks.insert(0, block)
        return block

    def evict(self, block: RefBlock) -> None:
        self.blocks.remove(block)
        self.core_counts[block.core] -= 1

    def lru_block(self) -> RefBlock:
        return self.blocks[-1]

    def lru_block_of(self, core: int) -> RefBlock:
        """``core``'s LRU-most resident block (caller checks residency)."""
        for block in reversed(self.blocks):
            if block.core == core:
                return block
        raise RuntimeError(f"reference set {self.index}: core {core} not resident")


# -- baseline replacement policies ------------------------------------------


class RefLRU:
    """True LRU: MRU insertion, MRU promotion, LRU-end victim."""

    name = "lru"

    def record_miss(self, cset: RefSet, core: int) -> None:
        pass

    def on_hit(self, cset: RefSet, block: RefBlock) -> None:
        cset.promote(block)

    def insert_at_lru(self, cset: RefSet, core: int) -> bool:
        return False

    def victim(self, cset: RefSet) -> RefBlock:
        return cset.lru_block()


class RefDIP(RefLRU):
    """DIP transcription: LRU/BIP leader sets duel over a PSEL counter.

    The bimodal draw happens exactly when the engine draws (only for a
    fill into a set currently following BIP), so both simulators walk the
    same PRNG stream.
    """

    name = "dip"

    def __init__(
        self,
        num_sets: int,
        epsilon: float = 1.0 / 32.0,
        leader_sets: int = 4,
        psel_bits: int = 10,
        seed: int = 0,
    ) -> None:
        self.epsilon = epsilon
        self.psel_max = (1 << psel_bits) - 1
        self.psel = self.psel_max // 2
        self._rng = make_rng(seed, "dip")
        self.roles: Dict[int, str] = {}
        leaders = min(leader_sets, max(1, num_sets // 2))
        stride = max(1, num_sets // (2 * leaders))
        for i in range(leaders):
            self.roles[(2 * i) * stride % num_sets] = "lru"
            self.roles[(2 * i + 1) * stride % num_sets] = "bip"

    def role_of(self, set_index: int) -> str:
        return self.roles.get(set_index, "follow")

    def uses_bip(self, set_index: int) -> bool:
        role = self.role_of(set_index)
        if role == "lru":
            return False
        if role == "bip":
            return True
        return self.psel > self.psel_max // 2

    def record_miss(self, cset: RefSet, core: int) -> None:
        role = self.role_of(cset.index)
        if role == "lru" and self.psel < self.psel_max:
            self.psel += 1
        elif role == "bip" and self.psel > 0:
            self.psel -= 1

    def insert_at_lru(self, cset: RefSet, core: int) -> bool:
        # Mirror of the engine's short-circuit: the bimodal PRNG is only
        # consulted when the set is currently following BIP.
        return self.uses_bip(cset.index) and self._rng.random() >= self.epsilon


# -- shadow tags -------------------------------------------------------------


class RefShadow:
    """Per-core stand-alone LRU stacks on the sampled sets, naive form."""

    def __init__(self, num_cores: int, num_sets: int, assoc: int, sample_shift: int) -> None:
        while num_sets <= (1 << sample_shift) and sample_shift > 0:
            sample_shift -= 1
        self.sample_mask = (1 << sample_shift) - 1
        self.num_cores = num_cores
        self.assoc = assoc
        self._stacks: List[Dict[int, List[int]]] = [
            {s: [] for s in range(0, num_sets, self.sample_mask + 1)}
            for _ in range(num_cores)
        ]
        self.position_hits: List[List[int]] = [[0] * assoc for _ in range(num_cores)]
        self.shadow_misses: List[int] = [0] * num_cores
        self.shared_hits: List[int] = [0] * num_cores
        self.shared_misses: List[int] = [0] * num_cores

    def observe(self, core: int, set_index: int, tag: int, shared_hit: bool) -> None:
        if set_index & self.sample_mask:
            return
        if shared_hit:
            self.shared_hits[core] += 1
        else:
            self.shared_misses[core] += 1
        stack = self._stacks[core][set_index]
        if tag in stack:
            position = stack.index(tag)
            self.position_hits[core][position] += 1
            del stack[position]
        else:
            self.shadow_misses[core] += 1
            if len(stack) >= self.assoc:
                stack.pop()
        stack.insert(0, tag)

    # The query surface the allocation transcriptions read (same names as
    # the engine's ShadowTagMonitor so the transcriptions read naturally).

    def standalone_hits(self, core: int) -> int:
        return sum(self.position_hits[core])

    def standalone_misses(self, core: int) -> int:
        return self.shadow_misses[core]

    def hits_with_ways(self, core: int, ways: int) -> int:
        return sum(self.position_hits[core][: min(ways, self.assoc)])

    def end_interval(self) -> None:
        for core in range(self.num_cores):
            self.position_hits[core] = [0] * self.assoc
            self.shadow_misses[core] = 0
            self.shared_hits[core] = 0
            self.shared_misses[core] = 0


# -- the analytical model, transcribed ---------------------------------------


def ref_normalize_targets(targets: Sequence[float]) -> List[float]:
    """Non-negative targets scaled to sum to 1 (uniform when all-zero)."""
    clipped = [max(0.0, t) for t in targets]
    total = sum(clipped)
    if total <= 0.0:
        n = len(clipped)
        return [1.0 / n] * n if n else []
    return [t / total for t in clipped]


def ref_eviction_probability(
    occupancy: float, target: float, miss_fraction: float, num_blocks: int, interval: int
) -> float:
    """Eq. 1: ``E_i = clamp((C_i - T_i) * N / W + M_i, 0, 1)``."""
    raw = (occupancy - target) * num_blocks / interval + miss_fraction
    if raw < 0.0:
        return 0.0
    if raw > 1.0:
        return 1.0
    return raw


def ref_derive_eviction_probabilities(
    occupancy: Sequence[float],
    targets: Sequence[float],
    miss_fractions: Sequence[float],
    num_blocks: int,
    interval: int,
    renormalize: bool = True,
) -> List[float]:
    """Eq. 1 per core, then renormalised to a sampleable distribution."""
    if not len(occupancy) == len(targets) == len(miss_fractions):
        raise ValueError("length mismatch between C, T and M")
    if num_blocks <= 0 or interval <= 0:
        raise ValueError("num_blocks and interval must be positive")
    probabilities = [
        ref_eviction_probability(c, t, m, num_blocks, interval)
        for c, t, m in zip(occupancy, targets, miss_fractions)
    ]
    if not renormalize:
        return probabilities
    total = sum(probabilities)
    if total <= 0.0:
        total = sum(miss_fractions)
        if total <= 0.0:
            n = len(probabilities)
            return [1.0 / n] * n
        return [m / total for m in miss_fractions]
    return [p / total for p in probabilities]


def ref_quantize(probabilities: Sequence[float], bits: int) -> List[int]:
    """K-bit numerators, to-nearest, largest entry forced to 1 if all round to 0."""
    scale = (1 << bits) - 1
    levels = [int(round(p * scale)) for p in probabilities]
    if probabilities and sum(levels) == 0:
        largest = max(range(len(levels)), key=lambda i: probabilities[i])
        levels[largest] = 1
    return levels


def ref_dequantize(levels: Sequence[int], bits: int) -> List[float]:
    """Quantised numerators back to a normalised distribution."""
    total = sum(levels)
    if total == 0:
        n = len(levels)
        return [1.0 / n] * n if n else []
    return [level / total for level in levels]


# -- allocation algorithms, transcribed --------------------------------------


class RefContext:
    """The interval snapshot an allocation transcription reads."""

    def __init__(
        self,
        num_cores: int,
        occupancy: List[float],
        miss_fractions: List[float],
        num_blocks: int,
        interval: int,
        shadow: RefShadow,
        perf=None,
    ) -> None:
        self.num_cores = num_cores
        self.occupancy = occupancy
        self.miss_fractions = miss_fractions
        self.num_blocks = num_blocks
        self.interval = interval
        self.shadow = shadow
        self.perf = perf


def _hitmax_knees(ctx: RefContext, knee_quantile: float) -> List[float]:
    """Smallest way count capturing ``knee_quantile`` of stand-alone hits."""
    assoc = ctx.shadow.assoc
    knees = []
    for core in range(ctx.num_cores):
        total = ctx.shadow.hits_with_ways(core, assoc)
        if total <= 0:
            knees.append(0.0)
            continue
        threshold = knee_quantile * total
        knee_ways = assoc
        for ways in range(assoc + 1):
            if ctx.shadow.hits_with_ways(core, ways) >= threshold:
                knee_ways = ways
                break
        knees.append(knee_ways / assoc)
    return knees


def ref_hitmax_targets(
    ctx: RefContext,
    occupancy_floor: float = 1.0,
    pure: bool = False,
    knee_quantile: float = 0.95,
    protect_cap_mult: float = 1.5,
    thrash_knee: float = 0.99,
    thrash_discount: float = 0.25,
) -> List[float]:
    """Algorithm 1 (hit maximisation), plus this repo's documented guards.

    ``pure=True`` is the paper's literal Algorithm 1: scale each core's
    current occupancy by its share of the total potential gain. The
    default additionally applies the small-core protection and thrash
    discounting described in ``DESIGN.md`` §3 — part of this repo's
    prism-h semantics, so the oracle must model them too.
    """
    gains = []
    for core in range(ctx.num_cores):
        gain = ctx.shadow.standalone_hits(core) - ctx.shadow.shared_hits[core]
        gains.append(float(max(0, gain)))
    knees = _hitmax_knees(ctx, knee_quantile) if not pure else []
    if not pure:
        gains = [
            gain * thrash_discount if knees[core] > thrash_knee else gain
            for core, gain in enumerate(gains)
        ]
    total_gain = sum(gains)
    floor = occupancy_floor / ctx.num_blocks
    occupancy = [max(c, floor) for c in ctx.occupancy]
    if total_gain <= 0.0:
        targets = ref_normalize_targets(occupancy)
    else:
        targets = ref_normalize_targets(
            [c * (1.0 + gain / total_gain) for c, gain in zip(occupancy, gains)]
        )
    if pure:
        return targets

    # Small-core protection: floor each protected core's target at its
    # utility knee, paid for by scaling the donors down.
    cap = protect_cap_mult / ctx.num_cores
    floors = [k if 0.0 < k <= cap else 0.0 for k in knees]
    deficit = [i for i in range(ctx.num_cores) if targets[i] < floors[i]]
    if not deficit:
        return targets
    needed = sum(floors[i] - targets[i] for i in deficit)
    donors_total = sum(t for i, t in enumerate(targets) if i not in deficit)
    if donors_total <= needed:
        return targets
    scale = (donors_total - needed) / donors_total
    adjusted = [
        floors[i] if i in deficit else targets[i] * scale
        for i in range(ctx.num_cores)
    ]
    return ref_normalize_targets(adjusted)


def ref_fairness_targets(ctx: RefContext, occupancy_floor: float = 1.0) -> List[float]:
    """Algorithm 2 (fairness): grow space in proportion to estimated slowdown."""
    if ctx.perf is None:
        raise RuntimeError("fairness transcription needs performance counters")
    slowdowns = []
    for core in range(ctx.num_cores):
        cpi_shared = ctx.perf.cpi(core)
        cpi_llc = ctx.perf.llc_stall_cpi(core)
        if cpi_shared <= 0.0:
            slowdowns.append(1.0)
            continue
        cpi_ideal = max(0.0, cpi_shared - cpi_llc)
        shared_misses = ctx.shadow.shared_misses[core]
        alone_misses = ctx.shadow.standalone_misses(core)
        if shared_misses > 0:
            scale = alone_misses / shared_misses
        else:
            scale = 1.0
        cpi_alone = cpi_ideal + cpi_llc * scale
        if cpi_alone <= 0.0:
            slowdowns.append(1.0)
            continue
        slowdowns.append(max(1.0, cpi_shared / cpi_alone))
    floor = occupancy_floor / ctx.num_blocks
    targets = [max(c, floor) * s for c, s in zip(ctx.occupancy, slowdowns)]
    return ref_normalize_targets(targets)


def ref_qos_targets(
    ctx: RefContext,
    target_ipc: float,
    qos_core: int = 0,
    alpha: float = 0.1,
    beta: float = 0.1,
    deadband: float = 0.0,
    max_occupancy: float = 0.9,
) -> List[float]:
    """Algorithm 3 (QoS): multiplicative steps for the QoS core, Alg. 1 rest."""
    if ctx.perf is None:
        raise RuntimeError("qos transcription needs performance counters")
    qos = qos_core
    current_ipc = ctx.perf.ipc(qos)
    c0 = max(ctx.occupancy[qos], 1.0 / ctx.num_blocks)
    if current_ipc < target_ipc * (1.0 - deadband):
        t0 = (1.0 + alpha) * c0
    elif current_ipc > target_ipc * (1.0 + deadband):
        t0 = (1.0 - beta) * c0
    else:
        t0 = c0
    t0 = min(t0, max_occupancy)

    hitmax_targets = ref_hitmax_targets(ctx)
    others_total = sum(t for core, t in enumerate(hitmax_targets) if core != qos)
    remaining = 1.0 - t0
    targets = []
    for core in range(ctx.num_cores):
        if core == qos:
            targets.append(t0)
        elif others_total > 0.0:
            targets.append(hitmax_targets[core] / others_total * remaining)
        else:
            targets.append(remaining / max(1, ctx.num_cores - 1))
    return targets


# -- the PriSM mechanism, transcribed ----------------------------------------


class RefPrism:
    """Section 3.1 core-selection + victim-identification, plus intervals.

    Args:
        alloc: ``alloc(ctx) -> targets`` — one of the Algorithm 1-3
            transcriptions above, pre-bound with its parameters.
        num_cores: sharing cores.
        num_blocks: ``N``.
        num_sets: sets of the monitored cache (for shadow sampling).
        assoc: associativity (shadow arrays match the cache's).
        interval_len: ``W`` in misses (``None`` = the paper's ``W = N``).
        probability_bits: optional K-bit storage of ``E``.
        sample_shift: shadow-tag set sampling shift.
        seed: core-selection PRNG seed (same derivation as the engine's
            manager: both stand in for the same hardware RNG).
        fallback: ``"resample"`` or ``"paper"`` (Section 3.1 rule).
        bias_correction: subtract last interval's realised-minus-installed
            eviction-fraction error before installing.
        perf: performance counters for Algorithms 2/3 (or ``None``).
    """

    def __init__(
        self,
        alloc: Callable[[RefContext], List[float]],
        num_cores: int,
        num_blocks: int,
        num_sets: int,
        assoc: int,
        interval_len: Optional[int] = None,
        probability_bits: Optional[int] = None,
        sample_shift: int = 1,
        seed: int = 0,
        fallback: str = "resample",
        bias_correction: bool = True,
        perf=None,
    ) -> None:
        if fallback not in ("resample", "paper"):
            raise ValueError(f"fallback must be 'resample' or 'paper', got {fallback!r}")
        self.alloc = alloc
        self.num_cores = num_cores
        self.num_blocks = num_blocks
        self.interval_len = interval_len or num_blocks
        self.probability_bits = probability_bits
        self.fallback = fallback
        self.bias_correction = bias_correction
        self.perf = perf
        self.rng = make_rng(seed, "prism-manager")
        self.shadow = RefShadow(num_cores, num_sets, assoc, sample_shift)
        self.targets: List[float] = [1.0 / num_cores] * num_cores
        self.probabilities: List[float] = []
        self.cumulative: List[float] = []
        self._set_distribution([1.0 / num_cores] * num_cores)
        self.installed: List[float] = list(self.probabilities)
        self.replacements = 0
        self.victim_not_found = 0

    def _set_distribution(self, probabilities: List[float]) -> None:
        if len(probabilities) != self.num_cores:
            raise ValueError("distribution length mismatch")
        if any(p < 0.0 for p in probabilities):
            raise ValueError(f"negative eviction probability in {probabilities!r}")
        if abs(sum(probabilities) - 1.0) > 1e-6:
            raise ValueError(f"eviction probabilities sum to {sum(probabilities)}")
        self.probabilities = list(probabilities)
        cumulative = list(accumulate(probabilities))
        cumulative[-1] = 1.0  # a draw in [0, 1) can never fall off the end
        self.cumulative = cumulative

    # -- replacement (Section 3.1) --------------------------------------

    def select_victim(self, cset: RefSet) -> RefBlock:
        self.replacements += 1
        target_core = bisect_right(self.cumulative, self.rng.random())
        # First-touch semantics: sampling a core in this set materialises
        # it in the set's core order even when it owns nothing here.
        cset.touch(target_core)
        if cset.core_counts[target_core] > 0:
            return cset.lru_block_of(target_core)
        return self._fallback_victim(cset)

    def _fallback_victim(self, cset: RefSet) -> RefBlock:
        self.victim_not_found += 1
        probabilities = self.probabilities
        if self.fallback == "paper":
            # Paper, Section 3.1: "use the underlying replacement policy
            # to select the first replacement candidate that belongs to a
            # core with non-zero eviction probability."
            for block in reversed(cset.blocks):
                if probabilities[block.core] > 0.0:
                    return block
            return cset.lru_block()  # every resident core has E == 0
        # Resample E restricted to the cores present in this set.
        total = 0.0
        for core, count in cset.core_counts.items():
            if count:
                total += probabilities[core]
        if total <= 0.0:
            return cset.lru_block()
        draw = self.rng.random() * total
        acc = 0.0
        chosen = -1
        for core, count in cset.core_counts.items():
            if count:
                p = probabilities[core]
                if p > 0.0:
                    acc += p
                    chosen = core
                    if draw <= acc:
                        break
        return cset.lru_block_of(chosen)

    # -- interval (Section 3.2) ------------------------------------------

    def end_interval(self, cache: "ReferenceCache") -> None:
        ctx = RefContext(
            num_cores=self.num_cores,
            occupancy=cache.occupancy_fractions(),
            miss_fractions=cache.interval_miss_fractions(),
            num_blocks=self.num_blocks,
            interval=self.interval_len,
            shadow=self.shadow,
            perf=self.perf,
        )
        self.targets = self.alloc(ctx)
        probabilities = ref_derive_eviction_probabilities(
            ctx.occupancy, self.targets, ctx.miss_fractions,
            self.num_blocks, self.interval_len,
        )
        if self.bias_correction:
            probabilities = self._bias_correct(cache, probabilities)
        if self.probability_bits is not None:
            levels = ref_quantize(probabilities, self.probability_bits)
            probabilities = ref_dequantize(levels, self.probability_bits)
        self._set_distribution(probabilities)
        self.installed = list(probabilities)

    def _bias_correct(self, cache: "ReferenceCache", probabilities: List[float]) -> List[float]:
        evictions = cache.interval_evictions()
        total = sum(evictions)
        if total <= 0:
            return probabilities
        corrected = [
            max(0.0, p - (evicted / total - installed))
            for p, evicted, installed in zip(probabilities, evictions, self.installed)
        ]
        norm = sum(corrected)
        if norm <= 0.0:
            return probabilities
        return [p / norm for p in corrected]


# -- the cache ---------------------------------------------------------------


class RefAccess(NamedTuple):
    """Outcome of one reference access — field-compatible with AccessResult."""

    hit: bool
    set_index: int
    evicted_core: int
    evicted_addr: int


class ReferenceCache:
    """A naive shared cache: the oracle the fast engine is diffed against.

    Args:
        geometry: anything exposing ``num_sets``, ``num_blocks``, ``assoc``
            (a :class:`repro.cache.geometry.CacheGeometry` works; so does
            any duck-typed stand-in).
        num_cores: sharing cores.
        policy: a :class:`RefLRU`/:class:`RefDIP` baseline.
        scheme: an optional :class:`RefPrism`.
    """

    def __init__(
        self,
        geometry,
        num_cores: int,
        policy: RefLRU,
        scheme: Optional[RefPrism] = None,
        core_map: Optional[Sequence[int]] = None,
        track_sharers: bool = False,
    ) -> None:
        self.num_sets = geometry.num_sets
        self.num_blocks = geometry.num_blocks
        self.assoc = geometry.assoc
        self.num_cores = num_cores
        self.core_map = list(core_map) if core_map is not None else None
        self.track_sharers = bool(track_sharers)
        self.real_num_cores = (
            len(self.core_map) if self.core_map is not None else num_cores
        )
        self._set_mask = self.num_sets - 1
        self._tag_shift = self._set_mask.bit_length()
        self.policy = policy
        self.scheme = scheme
        self.sets = [RefSet(i, self.assoc) for i in range(self.num_sets)]
        self.occupancy: List[int] = [0] * num_cores
        self.hits: List[int] = [0] * num_cores
        self.misses: List[int] = [0] * num_cores
        self.evictions: List[int] = [0] * num_cores
        self._base_misses: List[int] = [0] * num_cores
        self._base_evictions: List[int] = [0] * num_cores
        self.intervals_completed = 0
        self._interval_len = scheme.interval_len if scheme is not None else 0
        self._interval_left = self._interval_len

    # -- derived state ----------------------------------------------------

    def occupancy_fractions(self) -> List[float]:
        n = self.num_blocks
        return [occ / n for occ in self.occupancy]

    def interval_miss_fractions(self) -> List[float]:
        interval = [m - b for m, b in zip(self.misses, self._base_misses)]
        total = sum(interval)
        if total == 0:
            return [1.0 / self.num_cores] * self.num_cores
        return [m / total for m in interval]

    def interval_evictions(self) -> List[int]:
        return [e - b for e, b in zip(self.evictions, self._base_evictions)]

    def state(self) -> EngineState:
        """Every resident block as an engine-comparable :class:`EngineState`."""
        rows = [(cset.index, block) for cset in self.sets for block in cset.blocks]
        blocks = [block for _, block in rows]
        return EngineState.of(
            self, [index for index, _ in rows], [b.tag for b in blocks],
            [b.core for b in blocks],
            filler=[b.filler for b in blocks] if self.core_map is not None else None,
            sharers=[b.sharers for b in blocks] if self.track_sharers else None,
        )

    # -- the access path ---------------------------------------------------

    def access(self, core: int, block_addr: int) -> RefAccess:
        real_core = core
        if self.core_map is not None:
            core = self.core_map[core]
        set_index = block_addr & self._set_mask
        tag = block_addr >> self._tag_shift
        cset = self.sets[set_index]

        block = cset.lookup(tag)
        hit = block is not None
        # Observers fire after the lookup and before any mutation, exactly
        # like the engine's monitor dispatch.
        if self.scheme is not None:
            self.scheme.shadow.observe(core, set_index, tag, hit)

        if hit:
            self.hits[core] += 1
            if self.track_sharers:
                block.sharers |= 1 << core
            self.policy.on_hit(cset, block)
            return RefAccess(True, set_index, -1, -1)

        self.misses[core] += 1
        self.policy.record_miss(cset, core)

        evicted_core = -1
        evicted_addr = -1
        if cset.full:
            if self.scheme is not None:
                victim = self.scheme.select_victim(cset)
            else:
                victim = self.policy.victim(cset)
            evicted_core = victim.core
            evicted_addr = (victim.tag << self._tag_shift) | set_index
            self.occupancy[evicted_core] -= 1
            self.evictions[evicted_core] += 1
            cset.evict(victim)
        filled = cset.insert(tag, core, self.policy.insert_at_lru(cset, core))
        self.occupancy[core] += 1
        if self.core_map is not None:
            filled.filler = real_core
        if self.track_sharers:
            filled.sharers = 1 << core

        if self._interval_len:
            self._interval_left -= 1
            if self._interval_left == 0:
                self._end_interval()
        return RefAccess(False, set_index, evicted_core, evicted_addr)

    def _end_interval(self) -> None:
        # Same order as the engine: the scheme reads the live interval
        # counters, then stats re-baseline, then monitors reset.
        self.scheme.end_interval(self)
        self._base_misses = list(self.misses)
        self._base_evictions = list(self.evictions)
        self.scheme.shadow.end_interval()
        self._interval_left = self._interval_len
        self.intervals_completed += 1


# -- registry-compatible builders --------------------------------------------


def _build_lru(num_cores, geometry, standalone_ipcs, kwargs, perf):
    return ReferenceCache(geometry, num_cores, RefLRU())


def _build_dip(num_cores, geometry, standalone_ipcs, kwargs, perf):
    return ReferenceCache(geometry, num_cores, RefDIP(geometry.num_sets, **kwargs))


def _prism(num_cores, geometry, alloc, kwargs, perf):
    return ReferenceCache(
        geometry,
        num_cores,
        RefLRU(),
        RefPrism(
            alloc,
            num_cores,
            geometry.num_blocks,
            geometry.num_sets,
            geometry.assoc,
            perf=perf,
            **kwargs,
        ),
    )


def _build_prism_h(num_cores, geometry, standalone_ipcs, kwargs, perf):
    pure = kwargs.pop("pure", False)
    protect_cap_mult = kwargs.pop("protect_cap_mult", 1.5)
    thrash_discount = kwargs.pop("thrash_discount", 0.25)

    def alloc(ctx):
        return ref_hitmax_targets(
            ctx, pure=pure, protect_cap_mult=protect_cap_mult,
            thrash_discount=thrash_discount,
        )

    return _prism(num_cores, geometry, alloc, kwargs, perf)


def _build_prism_f(num_cores, geometry, standalone_ipcs, kwargs, perf):
    return _prism(num_cores, geometry, ref_fairness_targets, kwargs, perf)


def _build_prism_q(num_cores, geometry, standalone_ipcs, kwargs, perf):
    fraction = kwargs.pop("target_ipc_fraction", 0.8)
    qos_core = kwargs.pop("qos_core", 0)
    if standalone_ipcs is None:
        raise ValueError("prism-q needs stand-alone IPCs to set its target")
    target = fraction * standalone_ipcs[qos_core]

    def alloc(ctx):
        return ref_qos_targets(ctx, target_ipc=target, qos_core=qos_core)

    return _prism(num_cores, geometry, alloc, kwargs, perf)


#: Registry names the reference simulator can stand in for. Keys are the
#: same names as repro.experiments.schemes.SCHEMES (asserted by a test).
REFERENCE_SCHEMES = {
    "lru": _build_lru,
    "dip": _build_dip,
    "prism-h": _build_prism_h,
    "prism-f": _build_prism_f,
    "prism-q": _build_prism_q,
}


def build_reference(
    name: str,
    num_cores: int,
    geometry,
    standalone_ipcs: Optional[Sequence[float]] = None,
    scheme_kwargs: Optional[dict] = None,
    perf=None,
    core_map: Optional[Sequence[int]] = None,
    track_sharers: bool = False,
) -> ReferenceCache:
    """Build a :class:`ReferenceCache` for a scheme-registry name.

    Accepts the same ``scheme_kwargs`` the engine's
    :func:`~repro.experiments.schemes.build_scheme` takes for that name.

    Raises:
        KeyError: for names the reference does not model (the message
            lists the supported ones).
    """
    try:
        builder = REFERENCE_SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"no reference model for scheme {name!r}; "
            f"supported: {sorted(REFERENCE_SCHEMES)}"
        ) from None
    reference = builder(
        num_cores, geometry, standalone_ipcs, dict(scheme_kwargs or {}), perf
    )
    # Ownership knobs are pure access-time behaviour; installed after
    # construction so every scheme builder stays a five-argument literal.
    if core_map is not None:
        reference.core_map = list(core_map)
        reference.real_num_cores = len(reference.core_map)
    reference.track_sharers = bool(track_sharers)
    return reference
