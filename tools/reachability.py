#!/usr/bin/env python3
"""Report the functions in ``src/`` that no driver reaches.

The ROADMAP's rule "no module survives if nothing in the registry, CLI or
examples reaches it" is checked here instead of asserted. The script

1. drives the offline CLI in one process: ``list``, ``cost``,
   ``characterize``, ``report --budget micro``, ``sweep`` (twice into one
   ``--store``: the second answers from it), ``tenants`` on
   both engines, ``run`` of every scheme plus the hierarchy, DRAM,
   ``--check``, vector (at 1,024 sets), telemetry, clustered and tenant
   variants,
   ``compare ... belady``, ``check fuzz`` (classic, vector, ``--sharing``),
   campaign ``run``/``status``/``export``/``resume`` and every registry
   experiment, all at small budgets; then every example except
   ``reproduce_paper.py`` (whose figures the ``experiment`` runs cover);
   then a two-spec campaign over two ``repro-sim herd worker``
   subprocesses, for the driver side of subprocess workers;
2. records every code object entered, under ``sys.setprofile`` and
   ``threading.setprofile``;
3. prints every function defined under ``src/`` that was never entered,
   grouped by module, with body-line totals (lines of nested functions
   are counted once).

Usage::

    python tools/reachability.py

It takes no flags and always exits 0: it is a report, not a gate. It
cannot see code that runs only in worker processes — the forked and the
subprocess worker entry points — and names those blind spots.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
EXAMPLES = REPO / "examples"

#: Functions the in-process drive cannot reach by construction.
BLIND_SPOTS = (
    "repro.campaign.executor._worker_main — runs in forked workers",
    "repro.campaign.stdio.serve — runs in `repro-sim herd worker` subprocesses",
)

#: Small per-run budget (instructions, or requests for trace workloads).
BUDGET = "5000"

#: A 1,024-set LLC: below that, a ``--backend vector`` request builds the
#: classic engine, so the vector runs pass this to reach the vector engine.
WIDE = ("--scale-factor", "4")


@dataclass(frozen=True)
class Function:
    """One ``def`` under the analysed tree."""

    module: str
    qualname: str
    path: str
    first_line: int  # ``co_firstlineno``: the first decorator, else the def
    def_line: int
    end_line: int

    @property
    def lines(self) -> range:
        return range(self.def_line, self.end_line + 1)


# -- analysis ----------------------------------------------------------------


def find_functions(root: Path) -> List[Function]:
    """Every function and method defined in the ``*.py`` files under ``root``.

    Module names are dotted paths relative to ``root`` (``src`` gives
    ``repro.cache.cacheset``).
    """
    found: List[Function] = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        real = os.path.realpath(path)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found.append(
                        Function(module, qualname, real, first, child.lineno, child.end_lineno)
                    )
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def never_entered(functions: Iterable[Function], entered: Iterable) -> List[Function]:
    """The functions whose code object is not among ``entered``."""
    seen: Set[Tuple[str, int, str]] = {
        (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in entered
    }
    return [
        f for f in functions
        if (f.path, f.first_line, f.qualname.rsplit(".", 1)[-1]) not in seen
    ]


def line_total(functions: Iterable[Function]) -> int:
    """Distinct source lines covered by ``functions`` (nesting counted once)."""
    lines: Set[Tuple[str, int]] = set()
    for f in functions:
        lines.update((f.path, line) for line in f.lines)
    return len(lines)


# -- the drive ---------------------------------------------------------------


def cli_invocations(tmp: Path) -> List[List[str]]:
    """Every ``repro-sim`` argv the drive runs, in order."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.schemes import SCHEMES

    store = str(tmp / "campaign")
    out: List[List[str]] = [
        ["list"],
        ["cost"],
        ["cost", "--paper-scale", "--cores", "4"],
        ["characterize", "179.art", "--accesses", BUDGET],
        ["report", "--budget", "micro", "--only", "fig1", "-o", str(tmp / "report.md"),
         "--quiet"],
    ]
    sweep = ["sweep", "interval_len", "64", "128", "--mix", "Q1", "--instructions", BUDGET,
             "--store", str(tmp / "sweep")]
    out += [sweep, sweep]
    out += [
        ["tenants", "--workload", "smoke4", "--requests", BUDGET],
        ["tenants", "--workload", "smoke4", "--requests", BUDGET, "--backend", "vector",
         *WIDE, "--json", str(tmp / "tenants.json"), "--csv", str(tmp / "tenants")],
    ]
    out += [["run", "--mix", "Q1", "--scheme", scheme, "--instructions", BUDGET]
            for scheme in sorted(SCHEMES)]
    run = ["run", "--mix", "Q1", "--scheme", "prism-h", "--instructions", BUDGET]
    out += [
        run + ["--l1", "inclusive"],
        run + ["--l1", "non-inclusive", "--dram-banks", "2", "--dram-row-blocks", "4"],
        run + ["--check"],
        run + ["--l1", "inclusive", "--check"],
        run + ["--backend", "vector", *WIDE],
        run + ["--backend", "vector", *WIDE, "--check"],
        run + ["--telemetry-out", str(tmp / "trace.jsonl")],
        run + ["--telemetry-out", str(tmp / "trace.csv")],
        ["run", "--mix", "shared:smoke4", "--scheme", "prism-f", "--clusters", "2",
         "--instructions", BUDGET],
        ["run", "--mix", "shared:smoke4", "--scheme", "prism-f", "--clusters", "2",
         "--instructions", BUDGET, "--check"],
        ["run", "--mix", "tenants:smoke4", "--scheme", "prism-h", "--instructions", BUDGET],
        ["run", "--mix", "tenants:smoke4", "--scheme", "prism-h", "--instructions", BUDGET,
         "--backend", "vector", *WIDE],
        ["compare", "--mix", "Q1", "--instructions", BUDGET, "--l1", "inclusive",
         "lru", "prism-h", "belady"],
        ["check", "fuzz", "--cases", "10", "--quiet"],
        ["check", "fuzz", "--cases", "10", "--backend", "vector", "--quiet"],
        ["check", "fuzz", "--cases", "10", "--sharing", "--quiet"],
        ["check", "fuzz", "--cases", "10", "--sharing", "--backend", "vector", "--quiet"],
        ["campaign", "run", "--store", store, "--mixes", "Q1", "Q2",
         "--schemes", "lru", "prism-h", "--instructions", BUDGET, "--jobs", "1",
         "--telemetry", "--limit", "3", "--quiet"],
        ["campaign", "status", "--store", store],  # incomplete: exits 1
        ["campaign", "resume", "--store", store, "--jobs", "2", "--quiet"],
        ["campaign", "status", "--store", store],
        ["campaign", "export", "--store", store, "-o", str(tmp / "export.csv")],
        ["campaign", "export", "--store", store, "-o", str(tmp / "export.jsonl"),
         "--format", "jsonl"],
    ]
    out += [["experiment", name, "--instructions", BUDGET] for name in sorted(EXPERIMENTS)]
    return out


def example_invocations(tmp: Path) -> List[List[str]]:
    """Every example script (path first) with small-budget arguments."""
    small = ["--instructions", BUDGET]
    return [
        # Shorter phases end within one interval, and the example's
        # two-half summary then divides by zero.
        [str(EXAMPLES / "control_loop_trace.py"), "--phase-length", "20000",
         "--csv", str(tmp / "loop.csv")],
        [str(EXAMPLES / "custom_policy.py")] + small,
        [str(EXAMPLES / "fairness_and_qos.py")] + small,
        [str(EXAMPLES / "hitmax_study.py"), "--mixes", "1"] + small,
        [str(EXAMPLES / "quickstart.py")] + small,
        [str(EXAMPLES / "sensitivity_study.py")] + small,
        [str(EXAMPLES / "trace_replay.py"), "--length", "2000", "--dir", str(tmp / "traces")]
        + small,
    ]


def subprocess_campaign() -> None:
    """Two specs over two local ``repro-sim herd worker`` subprocesses (the
    byte stream ``campaign run --hosts`` speaks over ssh, without the ssh)."""
    from repro.campaign.executor import iter_isolated
    from repro.experiments.configs import machine
    from repro.experiments.parallel import RunSpec

    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    argv = [sys.executable, "-m", "repro.cli", "herd", "worker"]
    specs = [RunSpec("Q1", scheme, instructions=int(BUDGET)) for scheme in ("lru", "prism-h")]
    failed = [o.spec.describe() for o in iter_isolated(
        specs, machine(4), commands=[("exec", argv)] * 2, events=lambda event: None,
    ) if not o.ok]
    if failed:
        raise RuntimeError(f"failed specs: {failed}")


def _quietly(action: Callable[[], object]) -> None:
    """Run ``action`` with stdout/stderr swallowed and the environment restored."""
    env = dict(os.environ)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            action()
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise RuntimeError(f"exit status {exc.code}") from None
    finally:
        os.environ.clear()
        os.environ.update(env)


def drive(tmp: Path) -> Tuple[Set, List[str]]:
    """Run every invocation under the profiler; returns (code objects, failures)."""
    from repro.cli import main

    entered: Set = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            entered.add(frame.f_code)

    def run_cli(argv: Sequence[str]) -> None:
        status = main(list(argv))
        # ``campaign status`` reports an incomplete store by exiting 1.
        if status not in (None, 0) and argv[:2] != ["campaign", "status"]:
            raise RuntimeError(f"exit status {status}")

    def run_example(argv: Sequence[str]) -> None:
        saved = sys.argv
        sys.argv = list(argv)
        try:
            runpy.run_path(argv[0], run_name="__main__")
        finally:
            sys.argv = saved

    jobs = [("repro-sim " + " ".join(a), lambda a=a: run_cli(a)) for a in cli_invocations(tmp)]
    jobs += [(" ".join(["python", Path(a[0]).name] + a[1:]), lambda a=a: run_example(a))
             for a in example_invocations(tmp)]
    jobs.append(("campaign over 2 `repro-sim herd worker` subprocesses", subprocess_campaign))

    failures: List[str] = []
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for label, job in jobs:
            start = time.perf_counter()
            try:
                _quietly(job)
            except Exception as exc:  # report and keep driving
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            print(f"  {time.perf_counter() - start:6.1f}s  {label}", file=sys.stderr)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return entered, failures


# -- the report --------------------------------------------------------------


def report(functions: List[Function], missed: List[Function], failures: List[str]) -> str:
    """The printed report: unreached functions by module, then totals."""
    by_module: Dict[str, List[Function]] = {}
    for f in missed:
        by_module.setdefault(f.module, []).append(f)
    out: List[str] = ["Never-entered functions in src/, by module:", ""]
    for module in sorted(by_module):
        group = by_module[module]
        out.append(f"{module}  ({len(group)} functions, {line_total(group)} lines)")
        for f in group:
            out.append(f"    {f.qualname}  L{f.def_line}-{f.end_line}")
    out += [
        "",
        f"functions in src/: {len(functions)}, never entered: {len(missed)} "
        f"({line_total(missed)} body lines)",
        "",
        "Not visible to this drive:",
    ]
    out += [f"  - {spot}" for spot in BLIND_SPOTS]
    if failures:
        out += ["", f"{len(failures)} invocation(s) failed (their code counts as unreached):"]
        out += [f"  - {failure}" for failure in failures]
    return "\n".join(out)


def main() -> int:
    sys.path.insert(0, str(SRC))
    functions = find_functions(SRC)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # anything written to a default path lands here
        try:
            entered, failures = drive(Path(tmp))
        finally:
            os.chdir(cwd)
    print(report(functions, never_entered(functions, entered), failures))
    print(f"\n(drive took {time.perf_counter() - start:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
