"""Workload-source registry: one seam for every way to build a workload.

Historically every entry point (``run_workload``, ``RunSpec``, the CLI,
campaign fingerprints) resolved workloads through the SPEC-centric
string-mix path (``"Q7"`` or a list of benchmark names). Trace families
that are not lists of benchmark profiles — the multi-tenant key-value
traces of :mod:`repro.workloads.tenants` — cannot be expressed that way,
so workload construction is now a first-class API:

- :class:`WorkloadSource` is the protocol every workload family
  implements: a stable ``label``, a ``num_cores`` width, a canonical
  ``identity()`` payload for campaign fingerprints, and (for families the
  timing model can drive) ``profiles()``.
- :class:`TraceSource` is the narrower protocol of the families that
  replay as raw ``(cores, addrs)`` chunks instead (tenants, shared
  data); :mod:`repro.tenancy.run` drives any of them.
- :func:`resolve_workload` turns any historical ``mix`` argument — a mix
  name, a sequence of benchmark names/profiles, a ``"family:spec"``
  reference, or a ready ``WorkloadSource`` — into a source.
- :data:`WORKLOAD_FAMILIES` mirrors :data:`repro.experiments.registry.EXPERIMENTS`:
  families register a parser for ``"family:spec"`` references
  (``"tenants:web8"``), keeping references plain picklable strings that
  survive ``RunSpec``/store round-trips.

The classic string paths resolve to :class:`MixSource` /
:class:`BenchmarkListSource`, whose ``identity()`` payloads are exactly
the strings/lists the campaign fingerprinter always hashed — promoting
the resolver changes no existing fingerprint.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Sequence, Tuple, Union

from repro.workloads.benchmark import BenchmarkProfile
from repro.workloads.mixes import get_mix
from repro.workloads.spec import get_profile

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WorkloadSource",
    "TraceSource",
    "MixSource",
    "BenchmarkListSource",
    "WORKLOAD_FAMILIES",
    "register_family",
    "workload_families",
    "resolve_workload",
]


class WorkloadSource(ABC):
    """One runnable workload: a label, a width, and a canonical identity.

    Attributes:
        kind: family discriminator (``"mix"``, ``"benchmarks"``,
            ``"tenants"``, ...).
    """

    kind: str = "abstract"

    @property
    @abstractmethod
    def label(self) -> str:
        """Display/record label (``WorkloadResult.mix`` for runs of this source)."""

    @property
    @abstractmethod
    def num_cores(self) -> int:
        """How many cores (or tenants) the source drives."""

    @abstractmethod
    def identity(self) -> Union[str, list, dict]:
        """Canonical JSON-able payload for campaign fingerprints.

        Must capture everything the generated accesses depend on (besides
        the run seed): two sources with equal identities must describe the
        same workload, byte for byte.
        """

    def profiles(self) -> List[BenchmarkProfile]:
        """Benchmark profiles for the timing-model drive.

        Trace-based families (:class:`TraceSource`) have no per-program
        profiles and raise ``TypeError``; callers that can replay raw
        traces should check for a ``TraceSource`` instead of calling this
        speculatively.
        """
        raise TypeError(
            f"{self.kind!r} workloads have no benchmark profiles; "
            "they replay as raw traces (see docs/tenancy.md)"
        )


class TraceSource(WorkloadSource):
    """A workload that replays as a raw trace rather than a timing model.

    Its "cores" are accounting owners (tenants, or real cores of a
    shared-data machine); the replay driver charges each chunk's accesses
    to the ``cores`` array it carries.
    """

    @property
    @abstractmethod
    def core_names(self) -> List[str]:
        """Per-core display labels (``WorkloadResult.benchmarks``)."""

    @abstractmethod
    def chunks(
        self, total_requests: int, seed: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The interleaved shared trace as ``(cores, addrs)`` chunks."""

    @abstractmethod
    def solo_requests(self, index: int, total_requests: int) -> int:
        """Core ``index``'s request budget when run alone."""

    @abstractmethod
    def core_chunks(
        self, index: int, total_requests: int, seed: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Core ``index``'s isolated stream (cores all 0) for solo runs."""


class MixSource(WorkloadSource):
    """A named mix from :data:`repro.workloads.mixes.MIXES` (``"Q7"``)."""

    kind = "mix"

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def label(self) -> str:
        return self.name

    @property
    def num_cores(self) -> int:
        return len(get_mix(self.name))

    def identity(self) -> str:
        return self.name

    def profiles(self) -> List[BenchmarkProfile]:
        return [get_profile(n) for n in get_mix(self.name)]

    def __repr__(self) -> str:
        return f"MixSource({self.name!r})"


class BenchmarkListSource(WorkloadSource):
    """An explicit sequence of benchmark names and/or profiles."""

    kind = "benchmarks"

    def __init__(self, items: Sequence) -> None:
        self.items = tuple(items)

    @property
    def label(self) -> str:
        return "custom"

    @property
    def num_cores(self) -> int:
        return len(self.items)

    def identity(self) -> list:
        return [
            item if isinstance(item, str) else getattr(item, "name", str(item))
            for item in self.items
        ]

    def profiles(self) -> List[BenchmarkProfile]:
        return [
            item if isinstance(item, BenchmarkProfile) else get_profile(item)
            for item in self.items
        ]

    def __repr__(self) -> str:
        return f"BenchmarkListSource({self.identity()})"


#: ``"family:spec"`` parsers, keyed by family name. Register with
#: :func:`register_family`; built-in families self-register on first use.
WORKLOAD_FAMILIES: Dict[str, Callable[[str], WorkloadSource]] = {}


def register_family(
    name: str, parser: Callable[[str], WorkloadSource], overwrite: bool = False
) -> None:
    """Register ``parser`` for ``"{name}:{spec}"`` workload references.

    Args:
        name: family prefix; must not contain ``":"``.
        parser: ``parser(spec) -> WorkloadSource`` for the text after the
            colon.
        overwrite: allow replacing an existing family (default: raise).
    """
    if ":" in name:
        raise ValueError(f"family name must not contain ':', got {name!r}")
    if name in WORKLOAD_FAMILIES and not overwrite:
        raise ValueError(f"workload family {name!r} is already registered")
    WORKLOAD_FAMILIES[name] = parser


def workload_families() -> List[str]:
    """Registered family names (built-ins included), sorted."""
    _ensure_builtin_families()
    return sorted(WORKLOAD_FAMILIES)


def _ensure_builtin_families() -> None:
    # Imported on demand: registry must stay import-cycle-free (tenants
    # imports this module for WorkloadSource/register_family).
    if "tenants" not in WORKLOAD_FAMILIES:
        import repro.workloads.tenants  # noqa: F401  (registers itself)
    if "shared" not in WORKLOAD_FAMILIES:
        import repro.workloads.shared  # noqa: F401  (registers itself)


def resolve_workload(ref: Union[str, Sequence, WorkloadSource]) -> WorkloadSource:
    """Resolve any workload reference to a :class:`WorkloadSource`.

    Accepts, in order of precedence:

    - a ready :class:`WorkloadSource` (returned as-is),
    - a ``"family:spec"`` string, dispatched through
      :data:`WORKLOAD_FAMILIES` (e.g. ``"tenants:web8"``),
    - a mix name (``"Q7"``),
    - a sequence of benchmark names and/or
      :class:`~repro.workloads.benchmark.BenchmarkProfile` objects.

    Raises:
        KeyError: for an unknown ``family:`` prefix (message lists the
            registered families).
        TypeError: for arguments that are none of the above.
    """
    if isinstance(ref, WorkloadSource):
        return ref
    if isinstance(ref, str):
        if ":" in ref:
            family, spec = ref.split(":", 1)
            _ensure_builtin_families()
            try:
                parser = WORKLOAD_FAMILIES[family]
            except KeyError:
                raise KeyError(
                    f"unknown workload family {family!r}; "
                    f"known: {sorted(WORKLOAD_FAMILIES)}"
                ) from None
            return parser(spec)
        return MixSource(ref)
    if isinstance(ref, Sequence):
        return BenchmarkListSource(ref)
    raise TypeError(
        "workload must be a WorkloadSource, a mix name, a 'family:spec' "
        f"reference, or a sequence of benchmarks; got {type(ref).__name__}"
    )
