"""Wire protocol of subprocess workers: framing and the launch document."""

import pytest

from repro.campaign.stdio import (
    FRAME_PREFIX,
    PROTOCOL_FORMAT,
    check_launch_doc,
    frame,
    launch_doc,
    unframe,
)


class TestFraming:
    def test_round_trip(self):
        message = {"type": "heartbeat", "worker": "w0", "done": 3, "current": None}
        assert unframe(frame(message)) == message

    def test_round_trip_with_trailing_newline(self):
        message = {"type": "bye", "worker": "w0"}
        assert unframe(frame(message) + "\n") == message

    def test_non_protocol_line_is_none(self):
        assert unframe("some stray print output") is None
        assert unframe("") is None

    def test_ssh_banner_is_none(self):
        assert unframe("Warning: Permanently added 'host' to known hosts.") is None

    def test_torn_frame_is_none(self):
        """A SIGKILLed worker's half-written line is log noise, not a crash."""
        whole = frame({"type": "result", "data": {"x": 1}})
        assert unframe(whole[: len(whole) - 4]) is None

    def test_framed_non_dict_is_none(self):
        assert unframe(FRAME_PREFIX + "[1, 2, 3]") is None
        assert unframe(FRAME_PREFIX + '"hello"') is None

    def test_frame_is_single_line(self):
        message = {"type": "log", "text": "line one\nline two"}
        assert "\n" not in frame(message)
        assert unframe(frame(message)) == message


class TestLaunchDoc:
    def doc(self):
        return launch_doc("w0", {"num_cores": 4}, heartbeat=0.5)

    def test_check_accepts_own_docs(self):
        doc = self.doc()
        assert check_launch_doc(doc) is doc
        assert doc["format"] == PROTOCOL_FORMAT

    def test_version_mismatch_rejected(self):
        """A format-1 (sharded) driver's document is refused outright."""
        doc = self.doc()
        doc["format"] = 1
        with pytest.raises(ValueError, match="format 1 != 2"):
            check_launch_doc(doc)

    def test_missing_key_rejected(self):
        doc = self.doc()
        del doc["machine"]
        with pytest.raises(ValueError, match="machine"):
            check_launch_doc(doc)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            check_launch_doc(["not", "a", "doc"])
