"""Status throughput/ETA columns and the columnar (Parquet) export."""

import json
import sys

import pytest

from repro.campaign.campaign import Campaign, completion_rate
from repro.campaign.store import STORE_FORMAT, ResultStore, result_to_dict, spec_to_dict
from repro.experiments.configs import machine

from tests.campaign.test_store import make_result

CONFIG = machine(4, instructions=3_000)


class TestCompletionRate:
    def test_rate_is_completions_over_span(self):
        # 3 records over 60s = 2 observed completions = 2/min.
        assert completion_rate([100.0, 130.0, 160.0]) == 2.0

    def test_order_does_not_matter(self):
        assert completion_rate([160.0, 100.0, 130.0]) == 2.0

    def test_needs_two_stamps(self):
        assert completion_rate([]) is None
        assert completion_rate([100.0]) is None

    def test_zero_span_is_none(self):
        assert completion_rate([100.0, 100.0]) is None

    def test_zero_stamps_filtered(self):
        """Legacy records carry created_at=0.0; they must not anchor the
        clock at the epoch and report absurd rates."""
        assert completion_rate([0.0, 100.0, 160.0]) == 1.0


def stored_record(campaign, spec, fp, created_at):
    """A store-shaped result record with a controlled timestamp."""
    return {
        "record": "result",
        "format": STORE_FORMAT,
        "fingerprint": fp,
        "spec": spec_to_dict(spec),
        "meta": {"wall_seconds": 1.0, "host": "h", "repro_version": "t",
                 "created_at": created_at},
        "result": result_to_dict(make_result(mix=spec.mix, scheme=spec.scheme)),
    }


def add_record(campaign, record):
    """Append one store-shaped record to the campaign's log, then reopen
    the store so the campaign sees it."""
    with open(campaign.store.records_path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    campaign.store = ResultStore(campaign.store.root)


class TestStatusThroughput:
    def campaign(self, tmp_path):
        return Campaign.grid(
            tmp_path / "s", CONFIG, mixes=["Q1", "Q4"], schemes=["lru", "ucp"]
        )

    def test_rate_and_eta_from_stored_timestamps(self, tmp_path):
        campaign = self.campaign(tmp_path)
        fps = campaign.fingerprints()
        # Two of four specs completed, one minute apart => 1 spec/min,
        # two pending => ETA 2 minutes.
        for spec, fp, ts in zip(campaign.specs[:2], fps[:2], (100.0, 160.0)):
            add_record(campaign, stored_record(campaign, spec, fp, ts))
        status = campaign.status()
        assert status.completed == 2 and status.pending == 2
        assert status.specs_per_min == 1.0
        assert status.eta_seconds == 120.0
        assert "1.0 specs/min" in status.describe()
        assert "ETA 2.0m" in status.describe()

    def test_no_rate_with_single_record(self, tmp_path):
        campaign = self.campaign(tmp_path)
        fps = campaign.fingerprints()
        add_record(campaign, stored_record(campaign, campaign.specs[0], fps[0], 100.0))
        status = campaign.status()
        assert status.specs_per_min is None and status.eta_seconds is None
        assert "specs/min" not in status.describe()

    def test_no_eta_when_done(self, tmp_path):
        campaign = self.campaign(tmp_path)
        fps = campaign.fingerprints()
        for i, (spec, fp) in enumerate(zip(campaign.specs, fps)):
            add_record(campaign, stored_record(campaign, spec, fp, 100.0 + 10 * i))
        status = campaign.status()
        assert status.done
        assert status.specs_per_min is not None
        assert status.eta_seconds is None

    def test_legacy_zero_timestamps_do_not_anchor_the_rate(self, tmp_path):
        """A store mixing legacy records (created_at=0.0) with stamped ones
        must compute the rate from the stamped records alone — an epoch
        anchor would report a near-zero rate and a multi-decade ETA."""
        campaign = self.campaign(tmp_path)
        fps = campaign.fingerprints()
        stamps = (0.0, 100.0, 160.0)
        for spec, fp, ts in zip(campaign.specs[:3], fps[:3], stamps):
            add_record(campaign, stored_record(campaign, spec, fp, ts))
        status = campaign.status()
        assert status.completed == 3 and status.pending == 1
        assert status.specs_per_min == 1.0
        assert status.eta_seconds == 60.0

    def test_all_legacy_records_yield_no_rate(self, tmp_path):
        campaign = self.campaign(tmp_path)
        fps = campaign.fingerprints()
        for spec, fp in zip(campaign.specs[:2], fps[:2]):
            add_record(campaign, stored_record(campaign, spec, fp, 0.0))
        status = campaign.status()
        assert status.completed == 2
        assert status.specs_per_min is None and status.eta_seconds is None

    def test_clock_skewed_workers_stamps_are_sorted(self, tmp_path):
        """Drivers on different hosts stamp records with their own clocks;
        records can land in a store out of timestamp order. The rate must
        come from the sorted span, never a negative/garbled first-to-last
        delta."""
        campaign = self.campaign(tmp_path)
        fps = campaign.fingerprints()
        skewed = (160.0, 100.0, 130.0)  # arrival order != stamp order
        for spec, fp, ts in zip(campaign.specs[:3], fps[:3], skewed):
            add_record(campaign, stored_record(campaign, spec, fp, ts))
        status = campaign.status()
        assert status.specs_per_min == 2.0
        assert status.eta_seconds == 30.0

    def test_eta_formatting(self):
        from repro.campaign.campaign import CampaignStatus

        fmt = CampaignStatus._format_eta
        assert fmt(45.0) == "45s"
        assert fmt(120.0) == "2.0m"
        assert fmt(5400.0) == "1.5h"


class TestParquetExport:
    def completed_campaign(self, tmp_path):
        campaign = Campaign.grid(
            tmp_path / "s", CONFIG, mixes=["Q1"], schemes=["lru"]
        )
        fp = campaign.fingerprints()[0]
        add_record(campaign, stored_record(campaign, campaign.specs[0], fp, 100.0))
        return campaign

    def test_missing_pyarrow_falls_back_to_csv_loudly(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "pyarrow", None)  # force ImportError
        campaign = self.completed_campaign(tmp_path)
        with pytest.warns(RuntimeWarning, match="falling back"):
            path = campaign.export(tmp_path / "out.parquet")
        assert path.suffix == ".csv"  # nobody mistakes the bytes for parquet
        assert path.exists()
        assert "WARNING" in capsys.readouterr().err
        assert "Q1" in path.read_text()

    def test_format_dispatch_by_suffix_and_flag(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "pyarrow", None)
        campaign = self.completed_campaign(tmp_path)
        with pytest.warns(RuntimeWarning):
            by_flag = campaign.export(tmp_path / "flagged", fmt="parquet")
        assert by_flag.suffix == ".csv"
        assert campaign.export(tmp_path / "out.csv").suffix == ".csv"
        assert campaign.export(tmp_path / "out.jsonl").name == "out.jsonl"
        with pytest.raises(ValueError, match="unknown export format"):
            campaign.export(tmp_path / "out", fmt="xml")

    def test_real_parquet_round_trip(self, tmp_path):
        pa = pytest.importorskip("pyarrow")
        pq = pytest.importorskip("pyarrow.parquet")
        campaign = self.completed_campaign(tmp_path)
        path = campaign.export(tmp_path / "out.parquet")
        assert path.suffix == ".parquet"
        table = pq.read_table(path)
        assert table.num_rows == 1
        assert "mix" in table.column_names
        del pa  # imported only to skip cleanly when absent
