"""Independent correctness checking for the optimised cache engine.

The fast engine (:mod:`repro.cache`) earns its speed from intrusive
linked lists, resolved hooks and pinned closures — exactly the kinds of
rewrites that can silently drift from the paper's semantics. This package
holds the machinery that keeps it honest:

- :mod:`repro.check.reference` — a deliberately slow, obviously-correct
  **reference simulator**: naive list-based sets, literal transcriptions
  of the paper's Algorithms 1-3, Eq. 1 and the Section 3.1 replacement
  mechanism, driven by the same scheme-registry names as the engine.
- :mod:`repro.check.invariants` — a **runtime invariant checker** that
  plugs into either engine through the existing observer/interval hooks,
  audits its engine-neutral ``state()`` view, and raises a typed
  :class:`InvariantViolation` the moment internal state goes inconsistent.
- :mod:`repro.check.differential` — a **differential fuzzer** that runs
  random (geometry, mix, seed, scheme) cases through both simulators and
  asserts access-for-access equality of hits, victim choices and the
  installed eviction probabilities.
- :mod:`repro.check.belady` — the **offline Belady/MIN optimum** over
  recorded post-L1 traces: an upper bound every online policy is
  certified against (``assert_belady_bound``), and the backing of the
  ``belady`` scheme name in the experiment registry.

See ``docs/testing.md`` for the full invariant list and how to run the
fuzzer locally (``repro-sim check fuzz``).

The package re-exports nothing: import names from their modules. Only
the invariant checker and the reference simulator audit numpy state views,
so the ``belady`` scheme's replay (:mod:`repro.check.belady`) runs
without loading numpy.
"""
