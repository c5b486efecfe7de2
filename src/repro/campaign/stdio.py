"""Subprocess workers: the framed-stdio protocol of ``repro-sim herd worker``.

:func:`~repro.campaign.executor.iter_isolated` runs specs on forked
workers by default. Given worker *commands* instead, each worker is a
subprocess — ``ssh -o BatchMode=yes HOST repro-sim herd worker``, or
any other command that ends in ``repro-sim herd worker`` (the tests run
``python -m repro.cli herd worker``) — and talks to the driver over its
stdin/stdout:

========== ==========  =================================================
direction  line        meaning
========== ==========  =================================================
→ worker   launch doc  first line, plain JSON: protocol format, worker
                       name, machine config, heartbeat cadence
→ worker   spec        one spec to run (sent only to an idle worker)
worker →   heartbeat   liveness, from a daemon thread, even mid-spec
worker →   outcome     the spec's result (store-encoded) or its error
========== ==========  =================================================

Every line after the launch document is framed with
:data:`FRAME_PREFIX`; a line without it (a stray ``print``, an ssh
banner) is worker log output, and a torn frame from a killed worker is
too. Stdin EOF tells a worker to exit once its in-flight spec is done.

The launch document leads with ``format``, so a worker of another
protocol version refuses it with the mismatch error of
:func:`check_launch_doc` instead of misreading specs. This module is
imported only when a run asks for subprocess workers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import traceback
from typing import List, Optional, Sequence, Tuple

from repro.cache.backends import EngineChoice
from repro.campaign.campaign import machine_from_dict, machine_to_dict
from repro.campaign.executor import SpecError
from repro.campaign.store import result_from_dict, result_to_dict, spec_from_dict, spec_to_dict
from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import run_spec

__all__ = [
    "PROTOCOL_FORMAT",
    "FRAME_PREFIX",
    "HEARTBEAT_SECONDS",
    "DEAD_AFTER_SECONDS",
    "frame",
    "unframe",
    "launch_doc",
    "check_launch_doc",
    "ssh_commands",
    "serve",
    "StdioWorker",
]

#: Launch-document / message schema version (checked by the worker).
#: Format 1 was the sharded protocol: a shard of specs per launch.
PROTOCOL_FORMAT = 2

#: Line prefix that marks a protocol message on a stdio stream.
FRAME_PREFIX = "@repro-herd "

#: Seconds between a worker's heartbeats.
HEARTBEAT_SECONDS = 1.0

#: Heartbeat silence (seconds) after which the driver counts a subprocess
#: worker as crashed. Heartbeats come from a daemon thread, so a worker
#: deep inside a long simulation keeps beating: silence means trouble.
DEAD_AFTER_SECONDS = 15.0

#: A worker command: a label (names the worker) and its argv.
Command = Tuple[str, List[str]]


def frame(message: dict) -> str:
    """One message as a single framed line (no trailing newline)."""
    return FRAME_PREFIX + json.dumps(message, separators=(",", ":"))


def unframe(line: str) -> Optional[dict]:
    """Decode a framed line; ``None`` for non-protocol output.

    A line that *claims* the prefix but does not parse is also ``None``
    (log noise): a torn final line from a SIGKILLed worker must not take
    the driver down.
    """
    line = line.strip()
    if not line.startswith(FRAME_PREFIX):
        return None
    try:
        message = json.loads(line[len(FRAME_PREFIX):])
    except json.JSONDecodeError:
        return None
    return message if isinstance(message, dict) else None


def launch_doc(worker: str, machine: dict, heartbeat: float) -> dict:
    """The first line a worker reads: everything but the specs."""
    return {
        "format": PROTOCOL_FORMAT,
        "worker": worker,
        "machine": machine,
        "heartbeat": heartbeat,
    }


def check_launch_doc(doc: dict) -> dict:
    """Validate a launch document, raising ``ValueError`` on mismatch."""
    if not isinstance(doc, dict) or doc.get("format") != PROTOCOL_FORMAT:
        raise ValueError(
            f"herd launch document format {doc.get('format') if isinstance(doc, dict) else doc!r} "
            f"!= {PROTOCOL_FORMAT} (driver and worker versions differ?)"
        )
    for key in ("worker", "machine", "heartbeat"):
        if key not in doc:
            raise ValueError(f"herd launch document missing {key!r}")
    return doc


def ssh_commands(
    hosts: Sequence[str], remote_command: str = "repro-sim herd worker"
) -> List[Command]:
    """One ssh worker per host entry (list a host twice for two workers)."""
    return [
        (host, ["ssh", "-o", "BatchMode=yes", host, remote_command]) for host in hosts
    ]


# -- the worker side ----------------------------------------------------------


def serve(stdin=None, stdout=None) -> int:
    """``repro-sim herd worker``: run each spec that arrives, until EOF.

    Returns a process exit code: 2 when stdin holds no launch document.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    header = stdin.readline()
    if not header.strip():
        print("herd worker: no launch document on stdin", file=sys.stderr)
        return 2
    doc = check_launch_doc(json.loads(header))
    config = machine_from_dict(doc["machine"])
    lock = threading.Lock()

    def send(message: dict) -> None:
        with lock:
            stdout.write(frame(message) + "\n")
            stdout.flush()

    stop = threading.Event()

    def beat() -> None:
        try:
            while not stop.wait(doc["heartbeat"]):
                send({"type": "heartbeat", "ts": time.time()})
        except OSError:  # the driver is gone; stdin EOF ends the worker
            pass

    threading.Thread(target=beat, name="herd-heartbeat", daemon=True).start()
    try:
        for line in stdin:
            message = unframe(line)
            if message is None or message.get("type") != "spec":
                continue
            start = time.perf_counter()
            try:
                ran = run_spec(spec_from_dict(message["spec"]), config)
                # The engine choice is provenance, outside result_to_dict.
                result, engine = result_to_dict(ran), ran.engine
                error = None
            except BaseException as exc:  # everything, incl. KeyError/SystemExit
                result = engine = None
                error = {"error_type": type(exc).__name__, "message": str(exc),
                         "traceback": traceback.format_exc()}
            send({"type": "outcome", "result": result, "engine": engine, "error": error,
                  "wall_seconds": time.perf_counter() - start})
    finally:
        stop.set()
    return 0


# -- the driver side ----------------------------------------------------------


class StdioWorker:
    """Driver-side handle on one subprocess worker.

    Both output pipes are read with ``os.read`` as the loop's ``wait``
    reports them ready, so a worker never blocks the driver mid-line.
    Stdout carries the frames; anything else on stdout or stderr comes
    back as ``("log", text)``.
    """

    def __init__(self, name: str, argv: Sequence[str], config: MachineConfig) -> None:
        self.name = name
        # A new session keeps a terminal's Ctrl-C away from the worker (and
        # from an ssh client): the driver alone decides how to drain.
        self.process = subprocess.Popen(
            list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        self.pid = self.process.pid
        self._streams = {self.process.stdout.fileno(): b"", self.process.stderr.fileno(): b""}
        self.last_seen = time.monotonic()
        self.last_log = ""
        doc = launch_doc(name, machine_to_dict(config), HEARTBEAT_SECONDS)
        try:
            self._write(json.dumps(doc))
        except OSError:  # exited at once (say, ssh refused): the loop sees EOF
            pass

    def _write(self, line: str) -> None:
        self.process.stdin.write(line.encode() + b"\n")
        self.process.stdin.flush()

    def waitables(self) -> List[int]:
        return list(self._streams)

    def send(self, spec) -> None:
        self._write(frame({"type": "spec", "spec": spec_to_dict(spec)}))

    def receive(self, ready) -> list:
        """Messages from the pipes in ``ready``: ``("outcome", (result,
        error, seconds))``, ``("heartbeat", None)``, ``("log", text)``, or
        ``("eof", None)`` once stdout closes."""
        messages, eof = [], False
        for fd in [fd for fd in self._streams if fd in ready]:
            data = os.read(fd, 1 << 16)
            is_stdout = fd == self.process.stdout.fileno()
            if not data:
                del self._streams[fd]
                eof = eof or is_stdout
                continue
            self.last_seen = time.monotonic()
            *lines, self._streams[fd] = (self._streams[fd] + data).split(b"\n")
            for raw in lines:
                text = raw.decode(errors="replace")
                message = unframe(text) if is_stdout else None
                if message is None:
                    if text.strip():
                        self.last_log = text.strip()
                        messages.append(("log", self.last_log))
                elif message.get("type") == "heartbeat":
                    messages.append(("heartbeat", None))
                elif message.get("type") == "outcome":
                    result, error = message["result"], message["error"]
                    if result is not None:
                        result = result_from_dict(result)
                        if message.get("engine"):
                            result.engine = EngineChoice(*message["engine"])
                    messages.append(("outcome", (
                        result,
                        SpecError(**error) if error is not None else None,
                        message["wall_seconds"],
                    )))
        if eof:  # last, so the dying worker's final words are logged first
            messages.append(("eof", None))
        return messages

    def deadline(self) -> float:
        """When silence makes this worker count as crashed."""
        return self.last_seen + DEAD_AFTER_SECONDS

    def exitcode(self) -> Optional[int]:
        return self.process.returncode

    def kill(self) -> None:
        self.process.kill()

    def close(self) -> None:
        """EOF on stdin: an idle worker exits on its own."""
        try:
            self.process.stdin.close()
        except OSError:  # the worker is gone and the pipe is broken
            pass

    def join(self) -> None:
        self.process.wait()
        self.process.stdout.close()
        self.process.stderr.close()
