"""Pluggable worker transports: how the controller reaches its fleet.

A transport knows how to *launch* one worker with a shard document and
wire its message stream back to the controller. Every transport delivers
inbound traffic through a single callback — ``deliver(worker_name,
message_dict)`` — from a per-worker daemon reader thread, and reports a
worker's death as a synthetic ``{"type": "exit", "code": ...}`` message,
so the controller's event loop is one queue regardless of transport.

Built-ins:

- :class:`LocalTransport` — ``multiprocessing`` worker processes on this
  machine, messages over a duplex pipe. The CI-testable default: no
  network, no install assumptions, survives ``SIGKILL`` of any worker.
- :class:`ExecTransport` — workers as arbitrary subprocesses speaking
  the framed-stdio protocol (``repro-sim herd worker``). Exists on its
  own for tests (it exercises the exact byte stream ssh uses) and as the
  base for:
- :class:`SshTransport` — ``ExecTransport`` with an ``ssh host ...``
  argv prefix, all stdlib. The remote end needs nothing but an installed
  ``repro-sim``; shards travel over stdin, records come back framed on
  stdout, stderr lands in ``<store>/herd/logs/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.herd.protocol import frame, unframe

__all__ = [
    "WorkerHandle",
    "Transport",
    "LocalTransport",
    "ExecTransport",
    "SshTransport",
    "resolve_transport",
]

Deliver = Callable[[str, dict], None]


class WorkerHandle:
    """Controller-side handle on one launched worker."""

    def __init__(self, name: str) -> None:
        self.name = name

    def alive(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def send(self, message: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def kill(self) -> None:  # pragma: no cover - interface
        """Hard-kill (SIGKILL); used for dead/hung workers and chaos tests."""
        raise NotImplementedError

    def join(self, timeout: Optional[float] = None) -> None:  # pragma: no cover
        raise NotImplementedError


class Transport:
    """Launches workers; see module docstring for the contract."""

    name = "base"

    def launch(
        self, worker: str, shard_doc: dict, deliver: Deliver
    ) -> WorkerHandle:  # pragma: no cover - interface
        raise NotImplementedError


# -- local: multiprocessing -------------------------------------------------


def _local_child_main(conn, shard_doc: dict, inherited) -> None:
    """Child-process entry for the local transport."""
    import queue as queue_module

    # Fork copied the controller's end of this pipe and of every earlier
    # worker's; holding them would keep ``conn.recv()`` from ever seeing
    # EOF, so a worker would outlive a killed controller.
    for other in inherited:
        other.close()

    from repro.herd.worker import worker_loop

    send_lock = threading.Lock()

    def send(message: dict) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # controller died: stop quietly
                pass

    control: "queue_module.Queue" = queue_module.Queue()

    def read_control() -> None:
        while True:
            try:
                control.put(conn.recv())
            except (EOFError, OSError):
                control.put({"type": "drain"})
                return

    threading.Thread(target=read_control, daemon=True).start()
    worker_loop(shard_doc, send, control)


class _LocalHandle(WorkerHandle):
    def __init__(self, name: str, process, conn) -> None:
        super().__init__(name)
        self.process = process
        self.conn = conn
        self._send_lock = threading.Lock()

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, message: dict) -> None:
        with self._send_lock:
            try:
                self.conn.send(message)
            except (BrokenPipeError, OSError):
                pass

    def kill(self) -> None:
        self.process.kill()

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout)


class LocalTransport(Transport):
    """Worker loops as ``multiprocessing`` children of the controller."""

    name = "local"

    def __init__(self) -> None:
        self._conns: list = []  # controller-side ends of every launched pipe

    def launch(self, worker: str, shard_doc: dict, deliver: Deliver) -> WorkerHandle:
        from repro.campaign.executor import fork_context

        ctx = fork_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conns.append(parent_conn)
        process = ctx.Process(
            target=_local_child_main,
            args=(child_conn, shard_doc, self._conns),
            daemon=True,
        )
        process.start()
        child_conn.close()

        def read() -> None:
            # The pipe hitting EOF means the child exited (cleanly after
            # ``bye``, or abruptly on SIGKILL) — surface it either way.
            while True:
                try:
                    message = parent_conn.recv()
                except (EOFError, OSError):
                    break
                deliver(worker, message)
            process.join()
            deliver(worker, {"type": "exit", "worker": worker, "code": process.exitcode})

        threading.Thread(target=read, name=f"herd-read-{worker}", daemon=True).start()
        return _LocalHandle(worker, process, parent_conn)


# -- stdio subprocess (ssh and friends) -------------------------------------


class _ExecHandle(WorkerHandle):
    def __init__(self, name: str, process: subprocess.Popen) -> None:
        super().__init__(name)
        self.process = process
        self._send_lock = threading.Lock()

    def alive(self) -> bool:
        return self.process.poll() is None

    def send(self, message: dict) -> None:
        with self._send_lock:
            try:
                self.process.stdin.write(frame(message) + "\n")
                self.process.stdin.flush()
            except (BrokenPipeError, OSError, ValueError):
                pass

    def kill(self) -> None:
        self.process.kill()

    def join(self, timeout: Optional[float] = None) -> None:
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            pass


class ExecTransport(Transport):
    """Workers as subprocesses speaking framed stdio.

    ``argv`` is the full worker command (e.g. ``["repro-sim", "herd",
    "worker"]`` or ``[sys.executable, "-m", "repro.cli", "herd",
    "worker"]``). The shard document is written as the first stdin line;
    stderr goes to ``log_dir/<worker>.stderr.log`` when a log directory
    is given, else is inherited.
    """

    name = "exec"

    def __init__(self, argv: Sequence[str], log_dir: Optional[Path] = None) -> None:
        self.argv = list(argv)
        self.log_dir = Path(log_dir) if log_dir is not None else None

    def argv_for(self, worker: str) -> List[str]:
        return list(self.argv)

    def launch(self, worker: str, shard_doc: dict, deliver: Deliver) -> WorkerHandle:
        stderr = None
        if self.log_dir is not None:
            self.log_dir.mkdir(parents=True, exist_ok=True)
            stderr = open(self.log_dir / f"{worker}.stderr.log", "a")
        process = subprocess.Popen(
            self.argv_for(worker),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            bufsize=1,  # line-buffered: one frame per line
        )
        if stderr is not None:
            stderr.close()  # the child holds its own copy
        process.stdin.write(json.dumps(shard_doc, separators=(",", ":")) + "\n")
        process.stdin.flush()

        def read() -> None:
            for line in process.stdout:
                message = unframe(line)
                if message is None:
                    text = line.rstrip()
                    if text:
                        deliver(worker, {"type": "log", "worker": worker, "text": text})
                    continue
                deliver(worker, message)
            code = process.wait()
            deliver(worker, {"type": "exit", "worker": worker, "code": code})

        threading.Thread(target=read, name=f"herd-read-{worker}", daemon=True).start()
        return _ExecHandle(worker, process)


class SshTransport(ExecTransport):
    """``ExecTransport`` over ``ssh``: one worker per remote host.

    The hosts run ``remote_command`` (default ``repro-sim herd worker``)
    via a non-interactive ssh session. Worker names *are* the host names
    (``host#2`` when a host is listed twice to get two workers on it).
    """

    name = "ssh"

    def __init__(
        self,
        hosts: Sequence[str],
        remote_command: str = "repro-sim herd worker",
        ssh_command: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
        log_dir: Optional[Path] = None,
    ) -> None:
        super().__init__([], log_dir=log_dir)
        self.hosts = list(hosts)
        self.remote_command = remote_command
        self.ssh_command = list(ssh_command)
        self._host_for: dict = {}
        counts: dict = {}
        for host in self.hosts:
            counts[host] = counts.get(host, 0) + 1
            name = host if counts[host] == 1 else f"{host}#{counts[host]}"
            self._host_for[name] = host

    def worker_names(self) -> List[str]:
        return list(self._host_for)

    def argv_for(self, worker: str) -> List[str]:
        host = self._host_for.get(worker, worker)
        return self.ssh_command + [host, self.remote_command]


def resolve_transport(
    kind: str,
    hosts: Optional[Sequence[str]] = None,
    log_dir: Optional[Path] = None,
) -> Transport:
    """Build a transport from CLI-ish arguments.

    ``local`` ignores ``hosts``; ``ssh`` requires them; ``exec`` runs
    ``python -m repro.cli herd worker`` subprocesses on this machine —
    the ssh byte stream without the ssh (used by tests and useful for
    debugging framing issues).
    """
    if kind == "local":
        return LocalTransport()
    if kind == "ssh":
        if not hosts:
            raise ValueError("ssh transport needs --hosts")
        return SshTransport(hosts, log_dir=log_dir)
    if kind == "exec":
        return ExecTransport(
            [sys.executable, "-m", "repro.cli", "herd", "worker"], log_dir=log_dir
        )
    raise ValueError(f"unknown transport {kind!r} (expected local, ssh, or exec)")
