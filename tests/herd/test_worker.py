"""``serve``, the ``repro-sim herd worker`` loop, run in-process."""

import io
import json
import os
import threading
import time

from repro.campaign.campaign import machine_to_dict
from repro.campaign.stdio import frame, launch_doc, serve, unframe
from repro.campaign.store import result_from_dict, spec_to_dict
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_workload

CONFIG = machine(4, instructions=2_000)


def spec_line(mix="Q1", scheme="lru", seed=0):
    return frame({"type": "spec", "spec": spec_to_dict(RunSpec(mix, scheme, seed=seed))})


def doc_line(heartbeat=30.0):
    """Long default heartbeat: these tests assert exact message sequences."""
    return json.dumps(launch_doc("w0", machine_to_dict(CONFIG), heartbeat))


def run_stdio(lines, heartbeat=30.0, hold_open=0.0):
    """``serve`` over a real pipe, like a live ssh session: the launch
    document and ``lines``, then EOF (after ``hold_open`` seconds)."""
    read_fd, write_fd = os.pipe()
    stdin, writer = os.fdopen(read_fd, "r"), os.fdopen(write_fd, "w")
    stdout = io.StringIO()
    codes = []
    worker = threading.Thread(target=lambda: codes.append(serve(stdin, stdout)))
    worker.start()
    try:
        writer.write(doc_line(heartbeat) + "\n")
        for line in lines:
            writer.write(line + "\n")
        writer.flush()
        time.sleep(hold_open)
    finally:
        writer.close()  # EOF: the worker finishes and returns
        worker.join(timeout=60)
        stdin.close()
    assert not worker.is_alive()
    return codes[0], [unframe(line) for line in stdout.getvalue().splitlines()]


class TestWorkerLoop:
    def test_one_outcome_per_spec(self):
        code, sent = run_stdio([spec_line(), spec_line(scheme="prism-h")])
        assert code == 0
        kinds = [m["type"] for m in sent if m["type"] != "heartbeat"]
        assert kinds == ["outcome", "outcome"]

    def test_result_record_is_store_shaped_and_correct(self):
        _, sent = run_stdio([spec_line()])
        outcome = next(m for m in sent if m["type"] == "outcome")
        assert outcome["error"] is None
        assert outcome["wall_seconds"] > 0
        # The streamed payload is the store's encoding of the run a local
        # caller would compute.
        expected = run_workload("Q1", CONFIG, "lru", seed=0)
        assert result_from_dict(outcome["result"]) == expected

    def test_failure_record_for_broken_spec(self):
        _, sent = run_stdio([spec_line(mix="NO-SUCH-MIX")])
        outcome = next(m for m in sent if m["type"] == "outcome")
        assert outcome["result"] is None
        assert outcome["error"]["error_type"] == "KeyError"
        assert "NO-SUCH-MIX" in outcome["error"]["message"]
        assert "Traceback" in outcome["error"]["traceback"]

    def test_heartbeats_flow_while_idle(self):
        """The daemon thread beats on its own clock, not per spec."""
        _, sent = run_stdio([], heartbeat=0.01, hold_open=0.15)
        beats = [m for m in sent if m["type"] == "heartbeat"]
        assert beats, "no heartbeat in 150ms at 10ms cadence"


class TestStdioWorker:
    def test_end_to_end_over_pipe(self):
        code, messages = run_stdio([spec_line()])
        assert code == 0
        assert all(m is not None for m in messages)  # every line framed
        kinds = [m["type"] for m in messages if m["type"] != "heartbeat"]
        assert kinds == ["outcome"]

    def test_stdin_eof_means_drain(self):
        """Driver gone: the queued spec still completes, then the worker
        exits cleanly."""
        stdin = io.StringIO(doc_line() + "\n" + spec_line() + "\n")
        stdout = io.StringIO()
        assert serve(stdin, stdout) == 0
        messages = [unframe(line) for line in stdout.getvalue().splitlines()]
        assert messages[-1]["type"] == "outcome"

    def test_empty_stdin_is_an_error(self):
        assert serve(io.StringIO(""), io.StringIO()) == 2

    def test_garbage_control_lines_ignored(self):
        code, messages = run_stdio(["not a protocol line", frame({"type": "x"}),
                                    spec_line()])
        assert code == 0
        assert [m["type"] for m in messages if m["type"] == "outcome"] == ["outcome"]
