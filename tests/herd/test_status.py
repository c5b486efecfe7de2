"""Status view: folding ``events.jsonl`` into the per-worker table."""

import json
import os
import subprocess
import sys

from repro.campaign.campaign import Campaign
from repro.campaign.runner import EVENTS_NAME, read_events, worker_table
from repro.cli import main
from repro.experiments.configs import machine


def write_events(store_root, events, torn_tail=False):
    with open(store_root / EVENTS_NAME, "w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")
        if torn_tail:
            fh.write('{"event": "heartbeat", "worker": "w0", "ts"')


def events():
    return [
        {"event": "start", "worker": "fork-0", "ts": 100.0, "pid": 11},
        {"event": "start", "worker": "fork-1", "ts": 100.0, "pid": 12},
        {"event": "crash", "worker": "fork-1", "ts": 130.0, "results": 1, "code": -9,
         "spec": "Q1 / lru / seed 0"},
        {"event": "start", "worker": "fork-2", "ts": 131.0, "pid": 13},
        {"event": "heartbeat", "worker": "fork-2", "ts": 140.0, "results": 2},
        {"event": "exit", "worker": "fork-0", "ts": 150.0, "results": 3, "code": 0},
    ]


class TestHerdStatus:
    def test_fold(self, tmp_path):
        write_events(tmp_path, events())
        rows = worker_table(read_events(tmp_path))
        assert [(r["worker"], r["pid"], r["state"], r["results"], r["last_ts"])
                for r in rows] == [
            ("fork-0", 11, "exited", 3, 150.0),
            ("fork-1", 12, "crashed", 1, 130.0),
            ("fork-2", 13, "running", 2, 140.0),
        ]

    def test_torn_tail_tolerated(self, tmp_path):
        write_events(tmp_path, events(), torn_tail=True)
        assert len(read_events(tmp_path)) == len(events())  # tail dropped


class TestRender:
    def test_no_herd_yet(self, tmp_path):
        assert read_events(tmp_path) == []
        assert worker_table([]) == []

    def test_dashboard_mentions_fleet_and_deaths(self, tmp_path, capsys):
        Campaign.grid(tmp_path, machine(4, instructions=3_000), mixes=["Q1"],
                      schemes=["lru"]).save()
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait()
        fleet = events()
        fleet[3]["pid"] = os.getpid()  # fork-2: a live process
        fleet.append({"event": "start", "worker": "fork-3", "ts": 150.0,
                      "pid": finished.pid})  # its driver died: no exit event
        write_events(tmp_path, fleet)
        assert main(["campaign", "status", "--store", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        table = out[out.index("worker"):].splitlines()
        assert len(table) == 2 + 4  # header, rule, one row per worker
        assert "fork-1" in table[3] and "crashed" in table[3]
        assert "fork-2" in table[4] and "running" in table[4]
        assert "fork-3" in table[5] and "gone" in table[5]
