"""Phase-changing workloads.

The catalog profiles are stationary — ideal for calibration, but real
programs move through phases (a working-set change every few hundred
million instructions). :class:`PhasedProfile` chains catalog-style
profiles into a phase schedule so the interval controller's *adaptivity*
can be exercised: PriSM must re-learn targets when the active phase's
reuse behaviour changes, and the Fig. 11 stability story becomes a
per-phase property instead of a global one.

The phased stream speaks the same ``take`` protocol as the other streams,
so it drops into :class:`~repro.cpu.system.MultiCoreSystem` like any of
them. A ``take`` never crosses a phase boundary: it returns fewer
accesses than asked for when the phase ends first, and the switch to the
next phase happens at the start of the following ``take``. So
:attr:`PhasedStream.current_phase` is the phase of the chunk the caller
is working through.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.util.rng import derive_seed
from repro.workloads.benchmark import AccessStream, BenchmarkProfile

__all__ = ["PhasedProfile", "PhasedStream"]


class PhasedProfile:
    """A cyclic schedule of (profile, instructions) phases.

    Args:
        phases: sequence of ``(profile, instruction_count)`` pairs; the
            schedule repeats after the last phase.
        name: label for reports (defaults to a ``+``-join of phase names).

    The timing attributes (``mem_ratio``, ``mlp``, ``cpi_base``) a
    :class:`~repro.cpu.core_model.CoreTimingModel` reads come from the
    *first* phase's profile for construction; per-access timing follows
    the active phase through the stream's gap/address draws. For the
    core model's ``cpi_base`` (a scalar), phases should share a similar
    base CPI — the interesting phase changes are reuse-behaviour changes.
    """

    def __init__(
        self, phases: Sequence[Tuple[BenchmarkProfile, int]], name: str = None
    ) -> None:
        if not phases:
            raise ValueError("a phased profile needs at least one phase")
        for profile, instructions in phases:
            if instructions < 1:
                raise ValueError(
                    f"phase {profile.name!r} needs >= 1 instruction, got {instructions}"
                )
        self.phases = list(phases)
        self.name = name or "+".join(p.name for p, _ in phases)
        first = phases[0][0]
        self.mem_ratio = first.mem_ratio
        self.mlp = first.mlp
        self.cpi_base = first.cpi_base
        self.category = "phased"

    @property
    def mean_gap(self) -> float:
        return 1.0 / self.mem_ratio

    def stream(self, seed: int = 0, scale: float = 1.0) -> "PhasedStream":
        return PhasedStream(self, seed=seed, scale=scale)

    def footprint(self, scale: float = 1.0) -> int:
        return max(p.footprint(scale) for p, _ in self.phases)


class PhasedStream:
    """Stream that switches underlying profile streams on phase boundaries.

    Each phase gets its own address space offset so a phase change looks
    like what it is — a new working set, not a re-visit of the old one.
    """

    #: Address offset between phases (footprints never collide).
    PHASE_STRIDE = 1 << 28

    def __init__(self, profile: PhasedProfile, seed: int = 0, scale: float = 1.0) -> None:
        self.profile = profile
        self._streams: List[AccessStream] = [
            AccessStream(p, seed=derive_seed(seed, "phase", i, p.name), scale=scale)
            for i, (p, _) in enumerate(profile.phases)
        ]
        self._lengths = [instructions for _, instructions in profile.phases]
        # Per phase: accesses drawn from its sub-stream past the phase end,
        # served first when the schedule comes back to it.
        self._leftover: List[Tuple[List[int], List[int]]] = [
            ([], []) for _ in self._streams
        ]
        self._phase = 0
        self._instructions_in_phase = 0
        self.generated = 0
        self.phase_switches = 0

    @property
    def current_phase(self) -> int:
        """Index of the active phase: the phase of the chunk the last
        :meth:`take` returned, or after :meth:`next_access` the phase of
        the access it will return next."""
        return self._phase

    def _advance_phase(self) -> None:
        """Switch to the next phase once the active one has run its
        instruction budget."""
        if self._instructions_in_phase >= self._lengths[self._phase]:
            self._instructions_in_phase = 0
            self._phase = (self._phase + 1) % len(self._streams)
            self.phase_switches += 1

    def take(self, n: int) -> Tuple[List[int], List[int]]:
        """Draw up to ``n`` accesses of the current phase (at least one
        for ``n >= 1``), stopping after the access that completes it."""
        if n < 0:
            raise ValueError(f"count must be >= 0, got {n}")
        self._advance_phase()
        phase = self._phase
        gaps, addrs = self._leftover[phase]
        if len(gaps) < n:
            more_gaps, more_addrs = self._streams[phase].take(n - len(gaps))
            gaps = gaps + more_gaps
            addrs = addrs + more_addrs
        limit = self._lengths[phase]
        used = self._instructions_in_phase
        count = 0
        for gap in gaps:
            if count == n:
                break
            count += 1
            used += gap
            if used >= limit:
                break
        self._instructions_in_phase = used
        self._leftover[phase] = (gaps[count:], addrs[count:])
        self.generated += count
        offset = phase * self.PHASE_STRIDE
        return gaps[:count], [addr + offset for addr in addrs[:count]]

    def next_access(self) -> Tuple[int, int]:
        """The next (gap, address) pair. One access is consumed as soon as
        it is returned, so the switch a completed phase owes is made now."""
        gaps, addrs = self.take(1)
        self._advance_phase()
        return gaps[0], addrs[0]
